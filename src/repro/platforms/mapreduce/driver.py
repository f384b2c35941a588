"""MapReduce platform driver: chains jobs and extracts outputs."""

from __future__ import annotations

import numpy as np

from repro.algorithms.evo import evo_arrivals, transpose_burns
from repro.algorithms.sssp import UNREACHABLE_DISTANCE
from repro.algorithms.stats import GraphStats
from repro.core import etl
from repro.core.cost import ClusterSpec, RunProfile
from repro.core.platform_api import GraphHandle, Platform
from repro.core.workload import Algorithm, AlgorithmParams, fixpoint_round_bound

from repro.platforms import frontier
from repro.platforms.mapreduce.batch import RecordBatch
from repro.platforms.mapreduce.engine import MapReduceEngine, record_size
from repro.platforms.mapreduce.jobs import (
    BFSIterationJob,
    CDIterationJob,
    ConnIterationJob,
    EvoHopJob,
    LCCJob,
    PageRankIterationJob,
    SSSPIterationJob,
    StatsAggregationJob,
    StatsTriangleJob,
)

__all__ = ["MapReducePlatform"]


class MapReducePlatform(Platform):
    """Hadoop MapReduce v2 stand-in.

    Iterative algorithms run one (or more) jobs per iteration, paying
    job startup, the full graph's disk round-trip, shuffle, and sort
    every time — but holding only fixed-size buffers in memory, so the
    driver completes even the workloads that crash the in-memory
    platforms ("does not crash even when processing the largest
    workload").
    """

    name = "mapreduce"

    def __init__(self, cluster: ClusterSpec, bulk: bool = True):
        super().__init__(cluster)
        #: Batched shuffle/byte accounting in the engine; ``bulk=False``
        #: forces the per-record scalar charges (the cost profile is
        #: identical either way).
        self.bulk = bulk

    def _load(self, name: str, graph: Graph) -> GraphHandle:
        undirected = graph.to_undirected()
        adjacency = undirected.adjacency_tuples()
        storage = sum(record_size(k, v) for k, v in adjacency.items())
        # ETL: copy the adjacency records into HDFS (3-way replicated);
        # no in-memory structures to build — the cheapest load of all.
        etl_time = etl.replicated_write_seconds(storage, 3, self.cluster)
        return GraphHandle(
            name=name,
            platform=self.name,
            graph=undirected,
            storage_bytes=storage,
            etl_simulated_seconds=etl_time,
            detail={"adjacency": adjacency},
        )

    def _execute(
        self, handle: GraphHandle, algorithm: Algorithm, params: AlgorithmParams
    ) -> tuple[object, RunProfile]:
        meter = self._run_meter()
        engine = MapReduceEngine(self.cluster, meter, bulk=self.bulk)
        adjacency: dict[int, tuple[int, ...]] = handle.detail["adjacency"]
        try:
            if algorithm is Algorithm.BFS:
                source = params.resolve_bfs_source(handle.graph)
                output = self._run_bfs(engine, adjacency, source)
            elif algorithm is Algorithm.SSSP:
                source = params.resolve_sssp_source(handle.graph)
                output = self._run_sssp(
                    engine, handle.graph.weighted_adjacency(), source
                )
            else:
                runner = {
                    Algorithm.CONN: self._run_conn,
                    Algorithm.CD: self._run_cd,
                    Algorithm.STATS: self._run_stats,
                    Algorithm.EVO: self._run_evo,
                    Algorithm.PR: self._run_pagerank,
                    Algorithm.LCC: self._run_lcc,
                }[algorithm]
                output = runner(engine, adjacency, params)
        finally:
            engine.close()
        return output, meter.profile

    # -- algorithms ------------------------------------------------------

    @staticmethod
    def _run_to_fixpoint(engine, make_job, records, num_vertices):
        """Chain one job per iteration until a job changes nothing.

        A traversal fixpoint (BFS, CONN, SSSP) needs at most
        :func:`~repro.core.workload.fixpoint_round_bound` iterations;
        the driver raises rather than return unconverged records.
        """
        bound = fixpoint_round_bound(num_vertices)
        for iteration in range(1, bound + 1):
            result = engine.run_job(make_job(iteration), records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                return records
        raise RuntimeError(f"fixpoint not reached in {bound} iterations")

    def _run_bfs(self, engine, adjacency, source):
        return self._run_min_label(
            engine, adjacency, BFSIterationJob, frontier.BFS(source)
        )

    def _run_conn(self, engine, adjacency, params):
        return self._run_min_label(
            engine, adjacency, ConnIterationJob, frontier.CONN()
        )

    def _run_min_label(self, engine, adjacency, make_job, rule):
        """Chain ``make_job`` iterations from ``rule``'s seeded labels.

        Runs on :class:`RecordBatch` columns when the engine can run
        the job columnar, else on scalar records; either way the
        adjacency keys are the sorted vertex ids the rule seeds.
        """
        keys = np.fromiter(adjacency, dtype=np.int64, count=len(adjacency))
        labels, _, _ = rule.seeded(keys)
        if engine.runs_columnar(make_job(1)):
            batch = RecordBatch.from_adjacency(adjacency, {"label": labels})
            batch = self._run_to_fixpoint(engine, make_job, batch, len(keys))
            return dict(
                zip(batch.keys.tolist(), batch.columns["label"].tolist())
            )
        records = [
            (v, (adj, label))
            for (v, adj), label in zip(adjacency.items(), labels.tolist())
        ]
        records = self._run_to_fixpoint(engine, make_job, records, len(keys))
        return {v: label for v, (adj, label) in records}

    def _run_cd(self, engine, adjacency, params):
        records = [(v, (adj, v, 1.0)) for v, adj in adjacency.items()]
        for iteration in range(1, params.cd_max_iterations + 1):
            job = CDIterationJob(
                iteration, params.cd_hop_attenuation, params.cd_node_preference
            )
            result = engine.run_job(job, records)
            records = result.output
            if result.counters.get("changed", 0) == 0:
                break
        return {v: label for v, (adj, label, score) in records}

    def _run_stats(self, engine, adjacency, params):
        records = list(adjacency.items())
        partials = engine.run_job(StatsTriangleJob(), records)
        totals = engine.run_job(StatsAggregationJob(), partials.output)
        sums = dict(totals.output)
        return GraphStats.from_clustering_sum(
            int(sums.get("vertices", 0)),
            int(sums.get("edges", 0)) // 2,
            sums.get("clustering_sum", 0.0),
        )

    def _run_pagerank(self, engine, adjacency, params):
        n = len(adjacency)
        records = [(v, (adj, 1.0 / n)) for v, adj in adjacency.items()]
        for iteration in range(1, params.pagerank_iterations + 1):
            job = PageRankIterationJob(iteration, n, params.pagerank_damping)
            records = engine.run_job(job, records).output
        return {v: rank for v, (adj, rank) in records}

    def _run_sssp(self, engine, weighted_adjacency, source):
        records = [
            (v, (tuple(pairs), 0.0 if v == source else UNREACHABLE_DISTANCE,
                 v == source))
            for v, pairs in weighted_adjacency.items()
        ]
        records = self._run_to_fixpoint(
            engine, SSSPIterationJob, records, len(records)
        )
        return {v: dist for v, (wadj, dist, changed) in records}

    def _run_lcc(self, engine, adjacency, params):
        records = list(adjacency.items())
        return dict(engine.run_job(LCCJob(), records).output)

    def _run_evo(self, engine, adjacency, params):
        arrivals = evo_arrivals(
            sorted(adjacency), params.evo_new_vertices, params.evo_seed
        )
        seeds: dict[int, dict[int, int]] = {}
        for arrival, ambassador in arrivals.items():
            seeds.setdefault(ambassador, {})[arrival] = 0
        records = [
            (v, (adj, dict(seeds.get(v, {})), dict(seeds.get(v, {}))))
            for v, adj in adjacency.items()
        ]
        for hop in range(params.evo_max_hops):
            job = EvoHopJob(
                params.evo_p_forward, params.evo_max_hops, params.evo_seed, hop
            )
            result = engine.run_job(job, records)
            records = result.output
            if result.counters.get("burned", 0) == 0:
                break
        return transpose_burns(
            arrivals, ((v, burned) for v, (adj, burned, fresh) in records)
        )
