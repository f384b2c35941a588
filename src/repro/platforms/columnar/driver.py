"""Virtuoso platform driver: the full workload on the column store.

The paper announces Virtuoso support ("Furthermore, we plan to support
databases for RDF semantic web data and are working on implementing
support for OpenLink Virtuoso, a popular RDF database") and evaluates
its BFS in Section 3.4. This driver completes the integration: all
five Graphalytics algorithms run as vectored stored procedures over
the compressed, sorted ``sp_edge`` table, with intra-query parallelism
on the DBMS machine.

Cost accounting: random lookups (binary search + page touch) charge
random accesses; visited edge endpoints charge sequential decompress/
scan operations; the machine is a single multi-core node, so there is
no network and no barrier cost — but the *whole compressed table plus
the traversal state* must fit its memory.
"""

from __future__ import annotations

from repro.core import etl
from repro.core.cost import ClusterSpec, CostMeter, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams
from repro.algorithms.stats import GraphStats
from repro.graph.graph import Graph
from repro.platforms.columnar import procedures
from repro.platforms.columnar.table import ColumnTable

__all__ = ["VirtuosoPlatform", "paper_dbms_spec"]

#: Sequential ops charged per visited edge endpoint (decompression +
#: scan; the dominant term of the paper's CPU profile).
OPS_PER_ENDPOINT = 3.0
#: Random accesses charged per outbound-edge lookup.
ACCESSES_PER_LOOKUP = 2.0
#: Working memory per vertex of traversal state (border hash, labels).
STATE_BYTES_PER_VERTEX = 24.0


def paper_dbms_spec() -> ClusterSpec:
    """The paper's DBMS machine: 12-core/24-thread Xeon E5-2630, 2.3 GHz."""
    return ClusterSpec.from_profile("paper-dbms", name="dbms-24t")


class VirtuosoPlatform(Platform):
    """Column-store platform (OpenLink Virtuoso stand-in)."""

    name = "virtuoso"
    single_machine = True

    def __init__(self, cluster: ClusterSpec | None = None):
        super().__init__(cluster or paper_dbms_spec())
        if self.cluster.num_workers != 1:
            raise ValueError("the column store is a single-machine DBMS")

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        arcs = []
        if undirected.weights is not None:
            for source, target, weight in undirected.iter_weighted_edges():
                arcs.append((source, target, weight))
                arcs.append((target, source, weight))
            table = ColumnTable.weighted_edge_table(arcs, name="sp_edge")
            fields_per_arc = 3
        else:
            for source, target in undirected.iter_edges():
                arcs.append((source, target))
                arcs.append((target, source))
            table = ColumnTable.edge_table(arcs, name="sp_edge")
            fields_per_arc = 2
        vertices = [int(v) for v in undirected.vertices]
        storage = table.compressed_bytes + len(vertices) * STATE_BYTES_PER_VERTEX
        meter = CostMeter(self.cluster)
        meter.allocate_memory(0, storage)  # raises if the table cannot fit
        meter.release_memory(0, storage)
        # ETL: bulk load — read, sort by source key, compress columns.
        file_bytes = etl.edge_file_bytes(len(arcs))
        etl_time = (
            file_bytes / self.cluster.disk_bandwidth
            + etl.sort_seconds(len(arcs), self.cluster)
            + etl.parse_seconds(fields_per_arc * len(arcs), 2.0, self.cluster)
        )
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
            detail={"table": table, "vertices": vertices},
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        table: ColumnTable = handle.detail["table"]
        vertices: list[int] = handle.detail["vertices"]
        meter = self._run_meter()
        meter.allocate_memory(0, handle.storage_bytes)
        meter.charge_startup()
        meter.begin_round(algorithm.value.lower())
        try:
            output, stats = self._run_procedure(
                table, vertices, handle, algorithm, params
            )
            meter.charge_compute(0, stats.endpoints_visited * OPS_PER_ENDPOINT)
            meter.charge_random_access(
                0, stats.random_lookups * ACCESSES_PER_LOOKUP
            )
        finally:
            meter.end_round(active_vertices=len(vertices))
            meter.release_memory(0, handle.storage_bytes)
        return output, meter.profile

    def _run_procedure(self, table, vertices, handle, algorithm, params):
        if algorithm is Algorithm.BFS:
            start = params.resolve_bfs_source(handle.graph)
            return procedures.bfs_distances(table, vertices, start)
        if algorithm is Algorithm.CONN:
            return procedures.connected_components(table, vertices)
        if algorithm is Algorithm.STATS:
            (num_vertices, num_edges, mean), stats = (
                procedures.clustering_statistics(table, vertices)
            )
            output = GraphStats(
                num_vertices=num_vertices,
                num_edges=num_edges,
                mean_local_clustering=mean,
            )
            return output, stats
        if algorithm is Algorithm.CD:
            return procedures.label_propagation(
                table,
                vertices,
                params.cd_max_iterations,
                params.cd_hop_attenuation,
                params.cd_node_preference,
            )
        if algorithm is Algorithm.PR:
            return procedures.pagerank(
                table,
                vertices,
                params.pagerank_damping,
                params.pagerank_iterations,
            )
        if algorithm is Algorithm.SSSP:
            source = params.resolve_sssp_source(handle.graph)
            return procedures.sssp_distances(table, vertices, source)
        if algorithm is Algorithm.LCC:
            return procedures.local_clustering(table, vertices)
        if algorithm is Algorithm.EVO:
            return procedures.forest_fire(
                table,
                vertices,
                params.evo_new_vertices,
                params.evo_p_forward,
                params.evo_max_hops,
                params.evo_seed,
            )
        raise ValueError(f"unsupported algorithm {algorithm}")
