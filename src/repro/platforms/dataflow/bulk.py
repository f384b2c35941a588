"""Vectorized (bulk) delta iterations for the dataflow engine.

The scalar operators of :class:`~repro.platforms.dataflow.engine.
DataflowEngine` push every workset and emitted record through Python:
a worker hash, a ``CostMeter`` charge and a lambda per record. For the
min-label traversals — BFS distances and CONN label propagation — a
whole delta iteration instead runs as a handful of numpy operations
over the CSR arrays, against a dense solution array. The rule, the
groupBy + ``min`` aggregate and the per-worker charging come from
:mod:`repro.platforms.frontier`; this module keeps Stratosphere's
operator costs.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. Every charge is an integer-valued float, so per-worker sums are
exact, and the charge structure mirrors the scalar operators:

* expand — ``(1 + degree + emitted) × RECORD_CPU_OPS`` per workset
  record on its vertex's worker, then one shuffle of the workset;
* aggregate — ``RECORD_CPU_OPS`` per emitted record on its key's
  worker, then one shuffle of the emitted records;
* join — one random access per distinct candidate key;
* update — one random access per accepted delta.

``charge_shuffle`` is still called once per operator per iteration,
so the fault injector is consulted in the same sequence.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import fixpoint_round_bound
from repro.graph.graph import Graph
from repro.platforms.dataflow.engine import (
    RECORD_BYTES,
    RECORD_CPU_OPS,
    DataflowEngine,
)
from repro.platforms.frontier import (
    MinLabelRule,
    charge_ops,
    charge_probes,
    min_by_key,
)
from repro.platforms.hashing import hash_workers

__all__ = ["delta_min_label"]


def delta_min_label(
    engine: DataflowEngine, graph: Graph, rule: MinLabelRule
) -> dict[int, int]:
    """Run ``rule`` as a delta iteration; returns the final labels.

    The vectorized twin of :func:`~repro.platforms.dataflow.algorithms.
    dataflow_bfs` (``rule`` a :class:`~repro.platforms.frontier.BFS`)
    and :func:`~repro.platforms.dataflow.algorithms.dataflow_conn`
    (a :class:`~repro.platforms.frontier.CONN`). The workset starts as
    the rule's seeds; each record emits ``label + hop`` to every
    neighbor, candidates keep the minimum offer, and the accepted
    candidates enter the solution and form the next workset — one
    iteration per loop turn.
    """
    meter = engine.meter
    num_workers = engine.spec.num_workers
    fraction = engine.remote_fraction
    workers = hash_workers(graph.vertices, num_workers)
    solution, workset, payloads = rule.seeded(graph.vertices)

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
        charge_ops(
            meter,
            np.bincount(
                workers[workset], weights=1 + 2 * emitted, minlength=num_workers
            )
            * RECORD_CPU_OPS,
        )
        meter.charge_shuffle(count * RECORD_BYTES * fraction, count=count)

        # aggregate: groupBy key + min.
        charge_ops(
            meter, np.bincount(workers[keys], minlength=num_workers) * RECORD_CPU_OPS
        )
        meter.charge_shuffle(total * RECORD_BYTES * fraction, count=total)
        candidates, offers = min_by_key(
            keys, np.repeat(payloads + rule.hop, emitted)
        )

        # join + update: one probe per candidate, one write per delta.
        workset, payloads = rule.relax(solution, candidates, offers)
        charge_probes(
            meter,
            np.bincount(workers[candidates], minlength=num_workers)
            + np.bincount(workers[workset], minlength=num_workers),
        )

        meter.end_round(active_vertices=len(workset))
        iterations += 1
    return dict(zip(graph.vertices.tolist(), solution.tolist()))
