"""One-call convenience API.

For users who want the paper's default workflow — "By default,
Graphalytics runs all the algorithms implemented on all configured
graphs" — without assembling the harness objects by hand::

    import repro

    suite = repro.run_benchmark(["graph500-10", "patents"],
                                platforms=["giraph", "neo4j"])
    print(repro.render_report(suite))
"""

from __future__ import annotations

from repro.core.benchmark import BenchmarkCore, BenchmarkSuiteResult
from repro.core.cost import ClusterSpec
from repro.core.report import ReportGenerator
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams, BenchmarkRunSpec
from repro.datasets.catalog import load_dataset
from repro.graph.graph import Graph
from repro.platforms.registry import create_platform_fleet
from repro.robustness import FaultPlan, apply_mem_limit

__all__ = ["run_benchmark", "render_report"]


def run_benchmark(
    graphs: list[str] | dict[str, Graph],
    platforms: list[str] | None = None,
    algorithms: list[str | Algorithm] | None = None,
    cluster: ClusterSpec | None = None,
    params: AlgorithmParams | None = None,
    validate: bool = True,
    time_limit_seconds: float | None = None,
    mem_limit_bytes: float | None = None,
    fault_plan: "FaultPlan | str | None" = None,
    max_retries: int = 0,
) -> BenchmarkSuiteResult:
    """Run the benchmark with one call.

    Parameters
    ----------
    graphs:
        Catalog names (e.g. ``["graph500-10", "patents"]``) or a
        ``{name: Graph}`` mapping of already-built graphs.
    platforms:
        Platform names; ``None`` runs every registered platform.
        Cluster platforms get ``cluster``; single-machine platforms
        use their built-in default machines.
    algorithms:
        Algorithm names or members; ``None`` runs all five.
    cluster:
        Spec for the distributed platforms (default: the paper's
        10-worker cluster).
    params:
        Algorithm parameters (BFS source, CD/EVO knobs).
    validate:
        Check every output against the reference implementations.
    time_limit_seconds:
        Simulated-runtime budget per run; exceeding it records a
        ``time-limit`` failure.
    mem_limit_bytes:
        Per-worker simulated memory cap applied to every platform in
        the fleet; too-large graphs record deterministic
        ``FAILED(out-of-memory)`` cells (the paper's Figure 4
        missing values).
    fault_plan:
        A :class:`~repro.robustness.faults.FaultPlan` or its CLI spec
        string (e.g. ``"crash:worker=2,round=5"``); seeded fault
        injection per (platform, graph, algorithm) cell.
    max_retries:
        Bounded retries for transient injected faults.
    """
    if isinstance(graphs, dict):
        graph_map = dict(graphs)
    else:
        graph_map = {name: load_dataset(name) for name in graphs}
    resolved_algorithms = None
    if algorithms is not None:
        resolved_algorithms = [
            a if isinstance(a, Algorithm) else Algorithm.from_name(a)
            for a in algorithms
        ]
    fleet = create_platform_fleet(
        cluster or ClusterSpec.paper_distributed(), names=platforms
    )
    if mem_limit_bytes is not None:
        for platform in fleet:
            apply_mem_limit(platform, mem_limit_bytes)
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan)
    core = BenchmarkCore(
        fleet,
        graph_map,
        validator=OutputValidator() if validate else None,
        time_limit_seconds=time_limit_seconds,
        fault_plan=fault_plan,
        max_retries=max_retries,
    )
    return core.run(
        BenchmarkRunSpec(
            algorithms=resolved_algorithms,
            params=params or AlgorithmParams(),
        )
    )


def render_report(
    suite: BenchmarkSuiteResult, configuration: dict | None = None
) -> str:
    """The text report for a suite (see :class:`ReportGenerator`)."""
    return ReportGenerator(configuration=configuration).render(suite)
