"""Vectorized (bulk) delta iterations for the dataflow engine.

The scalar operators of :class:`~repro.platforms.dataflow.engine.
DataflowEngine` push every workset and emitted record through Python:
a ``_worker_of`` hash, a ``CostMeter`` charge and a lambda per record.
For the two min-combining traversals — BFS distances and CONN label
propagation — a whole delta iteration instead runs as a handful of
numpy operations over the CSR arrays, against a dense solution array,
with per-worker tallies from ``np.bincount`` charged through the
batched :meth:`~repro.core.cost.CostMeter.charge_compute_bulk` API.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. Every charge is an integer-valued float, so per-worker sums are
exact, and the charge structure mirrors the scalar operators:

* expand — ``(1 + degree + emitted) × RECORD_CPU_OPS`` per workset
  record on its vertex's worker, then one shuffle of the workset;
* aggregate — ``RECORD_CPU_OPS`` per emitted record on its key's
  worker, then one shuffle of the emitted records (``np.minimum.at``
  is the groupBy + ``min`` reduce);
* join — one random access per distinct candidate key;
* update — one random access per accepted delta.

``charge_shuffle`` is still called once per operator per iteration,
so the fault injector is consulted in the same sequence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.bfs import UNREACHABLE
from repro.core.workload import fixpoint_round_bound
from repro.graph.graph import Graph
from repro.platforms.dataflow.engine import (
    _KNUTH,
    RECORD_BYTES,
    RECORD_CPU_OPS,
    DataflowEngine,
)

__all__ = ["bulk_bfs", "bulk_conn"]

#: Identity of the ``min`` aggregation (no offer yet).
_NO_OFFER = np.iinfo(np.int64).max


def _workers_of(ids: np.ndarray, num_workers: int) -> np.ndarray:
    """The worker of each vertex id: ``_worker_of``, vectorized.

    Unsigned 64-bit multiplication wraps modulo 2**64, which keeps the
    low 32 bits of the product, so this equals the scalar hash
    element-wise (negative ids wrap to the same two's complement).
    """
    hashed = ids.astype(np.uint64) * np.uint64(_KNUTH)
    return (
        (hashed & np.uint64(0xFFFFFFFF)) % np.uint64(num_workers)
    ).astype(np.int64)


def bulk_bfs(engine: DataflowEngine, graph: Graph, source: int) -> dict[int, int]:
    """:func:`~repro.platforms.dataflow.algorithms.dataflow_bfs`, vectorized."""
    solution = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int64)
    origin = graph.indices_of([source])
    solution[origin] = 0
    _delta_min_iteration(
        engine,
        graph,
        solution,
        workset=origin,
        payloads=np.zeros(1, dtype=np.int64),
        hop=1,
        accept=lambda current, offer: current == UNREACHABLE,
    )
    return dict(zip(graph.vertices.tolist(), solution.tolist()))


def bulk_conn(engine: DataflowEngine, graph: Graph) -> dict[int, int]:
    """:func:`~repro.platforms.dataflow.algorithms.dataflow_conn`, vectorized."""
    solution = graph.vertices.astype(np.int64, copy=True)
    _delta_min_iteration(
        engine,
        graph,
        solution,
        workset=np.arange(graph.num_vertices, dtype=np.int64),
        payloads=solution.copy(),
        hop=0,
        accept=lambda current, offer: offer < current,
    )
    return dict(zip(graph.vertices.tolist(), solution.tolist()))


def _delta_min_iteration(
    engine: DataflowEngine,
    graph: Graph,
    solution: np.ndarray,
    workset: np.ndarray,
    payloads: np.ndarray,
    hop: int,
    accept: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> None:
    """Run a min-combining delta iteration, updating ``solution``.

    ``workset`` holds ascending dense vertex indices and ``payloads``
    their values. Each record emits ``payload + hop`` to every
    neighbor, candidates keep the minimum offer, and ``accept(current,
    offer)`` masks the candidates that enter the solution and form the
    next workset — the scalar ``step`` of ``dataflow_bfs`` /
    ``dataflow_conn``, one iteration per loop turn.
    """
    meter = engine.meter
    num_workers = engine.spec.num_workers
    fraction = engine.remote_fraction
    workers = _workers_of(graph.vertices, num_workers)
    best = np.full(graph.num_vertices, _NO_OFFER, dtype=np.int64)

    engine.reserve_solution(graph.num_vertices)
    bound = fixpoint_round_bound(graph.num_vertices)
    iterations = 0
    while len(workset):
        if iterations >= bound:
            raise RuntimeError(f"delta iteration exceeded {bound} iterations")
        meter.begin_round(f"delta-{iterations}")

        # expand: each workset record scans its adjacency and emits
        # one record per neighbor.
        count = len(workset)
        keys, emitted = graph.arcs_of(workset)
        total = len(keys)
        _charge_ops(
            meter,
            np.bincount(
                workers[workset], weights=1 + 2 * emitted, minlength=num_workers
            )
            * RECORD_CPU_OPS,
        )
        meter.charge_shuffle(count * RECORD_BYTES * fraction, count=count)

        # aggregate: groupBy key + min.
        _charge_ops(
            meter, np.bincount(workers[keys], minlength=num_workers) * RECORD_CPU_OPS
        )
        meter.charge_shuffle(total * RECORD_BYTES * fraction, count=total)
        np.minimum.at(best, keys, np.repeat(payloads + hop, emitted))
        candidates = _distinct(keys)
        offers = best[candidates]
        best[candidates] = _NO_OFFER

        # join + update: one probe per candidate, one write per delta.
        accepted = accept(solution[candidates], offers)
        workset, payloads = candidates[accepted], offers[accepted]
        _charge_probes(
            meter,
            np.bincount(workers[candidates], minlength=num_workers)
            + np.bincount(workers[workset], minlength=num_workers),
        )
        solution[workset] = payloads

        meter.end_round(active_vertices=len(workset))
        iterations += 1


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys.

    A sort and a run-boundary mask: several times faster than
    ``np.unique`` on the small per-iteration arrays.
    """
    ordered = np.sort(keys)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


def _charge_ops(meter, ops_per_worker: np.ndarray) -> None:
    """Charge per-worker op tallies in bulk."""
    for worker in np.nonzero(ops_per_worker)[0]:
        meter.charge_compute_bulk(int(worker), float(ops_per_worker[worker]))


def _charge_probes(meter, probes_per_worker: np.ndarray) -> None:
    """Charge per-worker random-access (probe) tallies in bulk."""
    for worker in np.nonzero(probes_per_worker)[0]:
        meter.charge_random_access(int(worker), float(probes_per_worker[worker]))
