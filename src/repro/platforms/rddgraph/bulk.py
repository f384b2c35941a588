"""Vectorized (bulk) execution of the GraphX Pregel loop.

The scalar path runs BFS and CONN through the real RDD substrate: one
Python closure call and one dict operation per record per stage. For
these two algorithms every stage's *records* are fixed-shape integer
pairs, so the whole loop collapses into numpy array operations — while
the :class:`~repro.core.cost.CostMeter` event sequence is replayed
verbatim from per-worker record counts. The min-label rule, the
min-combine and the per-worker charging come from
:mod:`repro.platforms.frontier`; this module keeps GraphX's
``changed`` flags, stage replay and RDD memory model.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. That works because every scalar charge is a per-record constant:

* each stage charges ``records * RECORD_CPU_OPS`` per worker and
  materializes ``records * bytes-per-record`` of cached memory, where
  the per-record footprint depends only on the record *shape*
  (``(id, int)`` pairs: 48 bytes; ``(id, (int, flag))`` vertex values:
  80; join triplets: 112) — so count × constant reproduces the scalar
  float accumulation exactly (integer-valued float64 sums below 2**53);
* the ``reduceByKey`` shuffle moves the map-side-combined ``(dst,
  source-partition)`` pairs whose key does not hash home, 24 wire
  bytes each;
* vertex-side join inputs lost their partitioner to ``map`` but stay
  physically hash-aligned, so their re-shuffle charges zero bytes —
  the bulk path makes the same (empty) ``charge_shuffle`` call;
* stage names consume the context's shared stage counter in the same
  order, and every materialize/unpersist allocates/releases the same
  per-worker byte totals at the same point in the sequence.

The runner is engaged by :class:`~repro.platforms.rddgraph.driver.
GraphXPlatform` when built with ``bulk=True`` (the default);
``bulk=False`` forces the scalar RDD path.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import fixpoint_round_bound
from repro.graph.graph import Graph
from repro.platforms.frontier import (
    BFS,
    CONN,
    MinLabelRule,
    charge_ops,
    charge_probes,
    distinct,
    min_by_key,
)
from repro.platforms.hashing import hash_workers
from repro.platforms.rddgraph.graphx import GraphXGraph
from repro.platforms.rddgraph.rdd import RECORD_CPU_OPS

__all__ = [
    "MinLabelKernel",
    "RDDPageRankBulkKernel",
    "BulkPregelRunner",
    "graphx_bfs_bulk",
    "graphx_conn_bulk",
    "graphx_pagerank_bulk",
]

#: Cached bytes of one ``(id, int)`` record (``RECORD_MEMORY_BYTES``).
_PAIR_BYTES = 48.0
#: Cached bytes of one ``(id, (value, flag))`` vertex record.
_VERTEX_BYTES = 80.0
#: Cached bytes of one join output ``(id, (other, (value, flag)))``.
_JOINED_BYTES = 112.0
#: Wire bytes of one shuffled ``(id, int)`` record.
_PAIR_WIRE_BYTES = 24.0
#: Wire bytes of one collected ``(id, (value, flag))`` record.
_VERTEX_WIRE_BYTES = 40.0


class MinLabelKernel:
    """GraphX BFS and CONN under one :class:`~repro.platforms.frontier.
    MinLabelRule` (vertex value = ``(label, changed)``).

    Mirrors :func:`~repro.platforms.rddgraph.algorithms.graphx_bfs` and
    :meth:`GraphXGraph.connected_components`: the seeds start changed;
    changed vertices offer ``label + hop`` along every arc; each target
    keeps the minimum offer, and the rule decides whether it replaces
    the target's label.

    A kernel is what :class:`BulkPregelRunner` drives: ``initial``,
    ``send_mask``, ``arc_messages``, ``merge_messages`` and
    ``absorb`` (see :class:`RDDPageRankBulkKernel` for the other one).
    """

    def __init__(self, rule: MinLabelRule):
        self.rule = rule

    def initial(self, vertex_ids):
        """Dense ``(values, changed)`` arrays: the seeds, changed."""
        values, seeds, _ = self.rule.seeded(vertex_ids)
        changed = np.zeros(len(vertex_ids), dtype=bool)
        changed[seeds] = True
        return values, changed

    def send_mask(self, values, changed):
        """Vertices whose label changed last iteration broadcast it."""
        return changed

    def arc_messages(self, values, senders):
        """Payload per sending arc: the sender's label plus ``hop``."""
        return values[senders] + self.rule.hop

    def merge_messages(self, payloads, message_targets, message_workers, num_workers):
        """Minimum offer per target; returns ``(targets, incoming)``."""
        return min_by_key(message_targets, payloads)

    def absorb(self, values, changed, targets, incoming):
        """The vertex program: accepted offers replace labels.

        Vertices without an accepted offer end the iteration unchanged
        (scalar ``vprog`` returns ``changed=False`` for them).
        """
        changed[:] = False
        accepted, _ = self.rule.relax(values, targets, incoming)
        changed[accepted] = True


class RDDPageRankBulkKernel:
    """Vectorized GraphX PageRank (value = ``(rank, iteration)``).

    Mirrors :func:`~repro.platforms.rddgraph.algorithms.
    graphx_pagerank` bit for bit. The scalar ``reduce_by_key`` folds
    float contributions in two stages — a map-side combine per source
    partition in arc-record order, then a final per-target fold over
    the combined partials in source-worker-ascending order — and
    :meth:`merge_messages` replays exactly that association order with
    sequential ``np.add.at`` accumulation (``reduceat`` pairwise sums
    would not match).
    """

    def __init__(self, degrees: np.ndarray, damping: float, iterations: int):
        #: Out-degree per dense vertex index, as float64.
        self.degrees = degrees
        self.damping = damping
        self.iterations = iterations
        #: Lockstep iteration counter — every vertex passes through
        #: ``vprog`` each round, so one scalar stands in for the
        #: per-vertex counters the scalar value tuples carry.
        self.iteration = 0
        self.base = 0.0

    def initial(self, vertex_ids):
        """Everyone starts at ``1/n``; iteration counters at zero."""
        n = len(vertex_ids)
        self.base = (1.0 - self.damping) / n if n else 0.0
        values = np.full(n, 1.0 / n if n else 0.0, dtype=np.float64)
        return values, np.zeros(n, dtype=bool)

    def send_mask(self, values, changed):
        """All vertices send until the iteration budget is spent."""
        if self.iteration < self.iterations:
            return np.ones(len(values), dtype=bool)
        return np.zeros(len(values), dtype=bool)

    def arc_messages(self, values, senders):
        """Each arc carries its source's ``rank / degree`` share."""
        return values[senders] / self.degrees[senders]

    def merge_messages(self, payloads, message_targets, message_workers, num_workers):
        """Two-level sequential float fold matching ``reduce_by_key``."""
        # Level 1 — map-side combine: one partial per (target, source
        # worker), accumulated in arc-stream order, which within any
        # one worker's slots is exactly that partition's record order.
        key = message_targets * num_workers + message_workers
        pair_keys, inverse = np.unique(key, return_inverse=True)
        pair_partials = np.zeros(len(pair_keys), dtype=np.float64)
        np.add.at(pair_partials, inverse, payloads)
        # Level 2 — reducer fold: pair_keys sort as (target, worker),
        # so adding in slot order folds each target's partials in
        # source-worker-ascending order, as ``_shuffle_pairs`` does.
        pair_target = pair_keys // num_workers
        targets = np.unique(pair_target)
        incoming = np.zeros(len(targets), dtype=np.float64)
        np.add.at(incoming, np.searchsorted(targets, pair_target), pair_partials)
        return targets, incoming

    def absorb(self, values, changed, targets, incoming):
        """Damped update for message targets, bare base for the rest."""
        values[:] = self.base
        values[targets] = self.base + self.damping * incoming
        self.iteration += 1


class BulkPregelRunner:
    """Replays the scalar RDD Pregel loop's cost events, vectorized.

    Built from the :class:`GraphXGraph` (for the shared meter and
    stage counter) and the underlying :class:`Graph` (for the CSR
    arrays the scalar path re-derives record by record).
    """

    def __init__(self, graphx: GraphXGraph, graph: Graph, kernel):
        self.context = graphx.context
        self.meter = self.context.meter
        self.kernel = kernel
        undirected = graph.to_undirected()
        self.ids = undirected.vertices
        self.num_workers = self.context.spec.num_workers
        #: ``_key_partition`` of every vertex id, vectorized.
        self.vertex_workers = hash_workers(self.ids, self.num_workers)
        degrees = undirected.out_degrees()
        self.arc_source = np.repeat(
            np.arange(len(self.ids), dtype=np.int64), degrees
        )
        _, self.arc_target = undirected.csr()
        self.arc_workers = self.vertex_workers[self.arc_source]
        self.vertices_per_worker = np.bincount(
            self.vertex_workers, minlength=self.num_workers
        )
        self.arcs_per_worker = np.bincount(
            self.arc_workers, minlength=self.num_workers
        )

    # -- the loop -----------------------------------------------------

    def run(self, max_iterations: int | None = None) -> tuple[np.ndarray, str]:
        """Execute the Pregel loop; returns final values and RDD name.

        The kernels all end by sending no messages, so running out of
        rounds — by default :func:`~repro.core.workload.fixpoint_round_bound`
        of them — raises rather than return a partial result.
        """
        if max_iterations is None:
            max_iterations = fixpoint_round_bound(len(self.ids))
        kernel, meter = self.kernel, self.meter
        values, changed = kernel.initial(self.ids)
        arcs, vertices = self.arcs_per_worker, self.vertices_per_worker
        total_vertices = int(vertices.sum())

        self._narrow_stage("mapVertices", vertices, vertices, total_vertices)
        self._allocate(_VERTEX_BYTES * vertices)
        name = "mapVertices"
        has_previous = False
        for _iteration in range(max_iterations):
            # triplets = edges ⋈ vertices: a full edge-RDD scan.
            self._begin_stage("triplets")
            meter.charge_shuffle(0.0, count=0)  # vertex side, all local
            self._charge_counts(2 * arcs + vertices)
            charge_probes(self.meter, arcs)
            meter.end_round(active_vertices=int(arcs.sum()))
            self._allocate(_JOINED_BYTES * arcs)
            # sendMsg: one flat_map over every triplet.
            sending = kernel.send_mask(values, changed)
            arc_mask = sending[self.arc_source]
            message_targets = self.arc_target[arc_mask]
            message_workers = self.arc_workers[arc_mask]
            messages = np.bincount(message_workers, minlength=self.num_workers)
            self._narrow_stage(
                "sendMsg", arcs, messages, int(messages.sum())
            )
            self._allocate(_PAIR_BYTES * messages)
            # mergeMsg: map-side combine, shuffle home, final reduce.
            payloads = kernel.arc_messages(values, self.arc_source[arc_mask])
            self._begin_stage("mergeMsg")
            self._charge_counts(messages)
            pair_keys = distinct(
                message_targets * self.num_workers + message_workers
            )
            pair_target = pair_keys // self.num_workers
            pair_worker = pair_keys % self.num_workers
            remote = int(
                np.count_nonzero(
                    pair_worker != self.vertex_workers[pair_target]
                )
            )
            meter.charge_shuffle(remote * _PAIR_WIRE_BYTES, count=remote)
            received = np.bincount(
                self.vertex_workers[pair_target], minlength=self.num_workers
            )
            self._charge_counts(received)
            targets, incoming = kernel.merge_messages(
                payloads, message_targets, message_workers, self.num_workers
            )
            merged = np.bincount(
                self.vertex_workers[targets], minlength=self.num_workers
            )
            meter.end_round(active_vertices=len(targets))
            self._allocate(_PAIR_BYTES * merged)
            self._release(_JOINED_BYTES * arcs)  # triplets.unpersist()
            self._release(_PAIR_BYTES * messages)  # messages.unpersist()
            if len(targets) == 0:
                self._release(_PAIR_BYTES * merged)  # merged.unpersist()
                break
            # vprog: left-outer-join the merged messages, map the program.
            self._begin_stage("vprog-join")
            meter.charge_shuffle(0.0, count=0)  # vertex side, all local
            self._charge_counts(2 * vertices + merged)
            charge_probes(self.meter, vertices)
            meter.end_round(active_vertices=total_vertices)
            self._allocate(_JOINED_BYTES * vertices)
            self._narrow_stage("vprog", vertices, vertices, total_vertices)
            self._allocate(_VERTEX_BYTES * vertices)
            self._release(_JOINED_BYTES * vertices)  # joined.unpersist()
            self._release(_PAIR_BYTES * merged)  # merged.unpersist()
            if has_previous:  # lineage: previous generation released now
                self._release(_VERTEX_BYTES * vertices)
            has_previous = True
            name = "vprog"
            kernel.absorb(values, changed, targets, incoming)
        else:
            raise RuntimeError(
                f"pregel fixpoint not reached in {max_iterations} iterations"
            )
        if has_previous:
            self._release(_VERTEX_BYTES * vertices)
        return values, name

    def collect(self, name: str, record_wire_bytes: float) -> None:
        """Replay :meth:`RDD.collect`'s charges for the final RDD."""
        meter = self.meter
        meter.begin_round(f"collect-{name}")
        self._charge_counts(self.vertices_per_worker)
        total = int(self.vertices_per_worker.sum())
        meter.charge_shuffle(total * record_wire_bytes, count=total)
        meter.end_round(active_vertices=total)

    def map_values_stage(self, name: str) -> None:
        """Replay one narrow ``map_values`` stage over the vertex RDD."""
        vertices = self.vertices_per_worker
        self._narrow_stage(name, vertices, vertices, int(vertices.sum()))
        self._allocate(_PAIR_BYTES * vertices)

    # -- charge helpers -----------------------------------------------

    # Opener half of a paired helper: every caller closes the round with
    # end_round on all paths (and those callers are themselves verified
    # by the cost-protocol rule), so the open round this helper hands
    # back is intentional, not a leak.
    def _begin_stage(self, suffix: str) -> None:  # quality: ignore[cost-protocol]
        """Open a round named with the context's shared stage counter."""
        self.meter.begin_round(f"stage-{next(self.context._stage)}-{suffix}")

    def _narrow_stage(
        self,
        suffix: str,
        in_counts: np.ndarray,
        out_counts: np.ndarray,
        produced: int,
    ) -> None:
        """One narrow transformation: per-record CPU in and out."""
        self._begin_stage(suffix)
        self._charge_counts(in_counts + out_counts)
        self.meter.end_round(active_vertices=produced)

    def _charge_counts(self, records_per_worker: np.ndarray) -> None:
        """Charge ``records * RECORD_CPU_OPS`` per worker, batched."""
        charge_ops(self.meter, records_per_worker * RECORD_CPU_OPS)

    def _allocate(self, bytes_per_worker: np.ndarray) -> None:
        """Materialize an RDD: cached bytes on every worker."""
        for worker in range(self.num_workers):
            self.meter.allocate_memory(worker, float(bytes_per_worker[worker]))

    def _release(self, bytes_per_worker: np.ndarray) -> None:
        """Unpersist an RDD: release its cached bytes."""
        for worker in range(self.num_workers):
            self.meter.release_memory(worker, float(bytes_per_worker[worker]))


def graphx_bfs_bulk(
    graphx: GraphXGraph, graph: Graph, source: int
) -> dict[int, int]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_bfs`."""
    runner = BulkPregelRunner(graphx, graph, MinLabelKernel(BFS(source)))
    values, name = runner.run()
    runner.collect(name, _VERTEX_WIRE_BYTES)
    return {int(v): int(d) for v, d in zip(runner.ids, values)}


def graphx_conn_bulk(graphx: GraphXGraph, graph: Graph) -> dict[int, int]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_conn`."""
    runner = BulkPregelRunner(graphx, graph, MinLabelKernel(CONN()))
    values, _name = runner.run()
    runner.map_values_stage("components")
    runner.collect("components", _PAIR_WIRE_BYTES)
    return {int(v): int(c) for v, c in zip(runner.ids, values)}


def graphx_pagerank_bulk(
    graphx: GraphXGraph,
    graph: Graph,
    damping: float = 0.85,
    iterations: int = 10,
) -> dict[int, float]:
    """Bulk twin of :func:`~repro.platforms.rddgraph.algorithms.graphx_pagerank`.

    Runs ``iterations + 1`` Pregel rounds like the scalar path — the
    final round finds no messages (the iteration budget is spent) and
    terminates the loop with the same charge sequence.
    """
    degrees = graph.to_undirected().out_degrees().astype(np.float64)
    kernel = RDDPageRankBulkKernel(degrees, damping, iterations)
    runner = BulkPregelRunner(graphx, graph, kernel)
    values, name = runner.run(iterations + 1)
    runner.collect(name, _VERTEX_WIRE_BYTES)
    return {int(v): float(r) for v, r in zip(runner.ids, values)}
