"""Porting a new platform to the benchmark (the driver API).

The paper: "adding a new platform to Graphalytics consists of
implementing the algorithms, adding a dataset loading method,
providing a workload processing interface, and logging the
information required for results reporting."

This example walks through exactly those four steps for a toy
"single-threaded in-memory" platform, registers it, and benchmarks it
next to Giraph — everything a third-party platform developer would do.

Run with::

    python examples/porting_a_platform.py
"""

from repro.algorithms import (
    bfs,
    community_detection,
    connected_components,
    forest_fire_links,
    stats,
)
from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.report import ReportGenerator
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams
from repro.datasets import load_dataset
from repro.graph.graph import Graph
from repro.platforms.registry import create_platform, register_platform


class ToyPlatform(Platform):
    """A minimal driver: single machine, adjacency in a Python dict."""

    name = "toy"

    # Step 1 — dataset loading method.
    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=float(80 * undirected.num_vertices
                                + 48 * undirected.num_edges),
        )

    # Step 2 — workload processing interface (+ step 3, the
    # algorithm implementations; the toy reuses the references).
    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        graph = handle.graph
        # Step 4 — log the information required for reporting: the
        # meter records rounds, work, and memory for the harness (the
        # base class's run meter also carries its faults and sinks).
        meter = self._run_meter()
        meter.allocate_memory(0, handle.storage_bytes)
        meter.charge_startup()
        meter.begin_round(algorithm.value.lower())
        try:
            if algorithm is Algorithm.BFS:
                output = bfs(graph, params.resolve_bfs_source(graph))
            elif algorithm is Algorithm.CONN:
                output = connected_components(graph)
            elif algorithm is Algorithm.CD:
                output = community_detection(
                    graph, max_iterations=params.cd_max_iterations
                )
            elif algorithm is Algorithm.STATS:
                output = stats(graph)
            else:
                output = forest_fire_links(
                    graph,
                    params.evo_new_vertices,
                    p_forward=params.evo_p_forward,
                    max_hops=params.evo_max_hops,
                    seed=params.evo_seed,
                )
            meter.charge_compute(0, 4.0 * graph.num_edges)
        finally:
            meter.end_round(active_vertices=graph.num_vertices)
            meter.release_memory(0, handle.storage_bytes)
        return output, meter.profile


def main() -> None:
    register_platform(ToyPlatform.name, ToyPlatform)

    graphs = {"graph500-9": load_dataset("graph500-9")}
    core = BenchmarkCore(
        [
            create_platform("toy", ClusterSpec.paper_single_node()),
            create_platform("giraph", ClusterSpec.paper_distributed()),
        ],
        graphs,
        validator=OutputValidator(),
    )
    suite = core.run()
    # The Output Validator held the toy driver to the same standard
    # as the built-in platforms: zero failures means its outputs are
    # byte-identical to the references.
    assert not suite.failures()
    print(ReportGenerator().runtime_matrix(suite))
    print("\nthe toy platform validated on all five algorithms")


if __name__ == "__main__":
    main()
