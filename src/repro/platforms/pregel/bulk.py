"""Vectorized (bulk) superstep execution for the Pregel engine.

The scalar engine runs one Python-level ``compute`` call per vertex
and one ``CostMeter`` charge per vertex/message. For the min-label
programs — BFS frontier expansion and HashMin label propagation —
the whole superstep instead runs as numpy operations over the CSR
arrays: the propagation step, the CSR gather, the min-combine and the
per-worker charging come from :mod:`repro.platforms.frontier`, and
this module keeps only Giraph's cost semantics.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. The charge structure below therefore mirrors
``PregelEngine._run_supersteps`` exactly:

* one op per computed vertex plus one per merged message digested;
* per distinct ``(target, source worker)`` pair, one message charge
  (sender-side combining) and queued-buffer memory on the receiving
  worker; every further send into the pair is one combine op on the
  source worker;
* at the barrier, queued buffers are released and the merged inbox is
  re-accounted on the receiving workers;
* adaptive central supersteps run everything on worker 0 with no
  barrier, exactly like the scalar engine.

A program opts in by returning a :class:`~repro.platforms.frontier.
MinLabelRule` from :meth:`~repro.platforms.pregel.engine.VertexProgram.
bulk_step`; the engine runs it only while the program's ``compute``
and ``combiner`` are the ones that declared the rule (see
:func:`~repro.platforms.frontier.runs_kernel`).
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import fixpoint_round_bound
from repro.platforms.frontier import (
    MinLabelRule,
    charge_ops,
    charge_pair_messages,
    csr_gather,
    min_by_key,
)

__all__ = ["BulkSuperstepRunner", "PageRankBulkRunner"]


class BulkSuperstepRunner:
    """Drives a :class:`~repro.platforms.frontier.MinLabelRule` with
    exact scalar-path costs.

    Instantiated by :meth:`PregelEngine.run` when the program offers a
    rule and the engine's bulk path is enabled; shares the engine's
    meter, partition map, and queued-message bookkeeping so that
    memory accounting (including the final release) matches the
    scalar path bit for bit.
    """

    def __init__(self, engine, program, rule: MinLabelRule | None):
        from repro.platforms.pregel.engine import MESSAGE_BYTES

        self.engine = engine
        self.program = program
        self.rule = rule
        graph = engine.graph
        self.ids = graph.vertices
        self.offsets, self.targets = graph.csr()
        self.n = graph.num_vertices
        self.num_workers = engine.spec.num_workers
        self.workers = engine.worker_array
        #: Queued bytes per message: payload plus buffer overhead.
        self.message_memory = float(program.message_bytes) + MESSAGE_BYTES
        self.payload = float(program.message_bytes)

    def run(self):
        """Execute to halting; returns a scalar-identical result."""
        from repro.platforms.pregel.engine import PregelResult

        engine, meter, program, rule = (
            self.engine, self.engine.meter, self.program, self.rule
        )
        values, seeds, seed_labels = rule.seeded(self.ids)

        meter.begin_round("init")
        charge_ops(meter, np.bincount(self.workers, minlength=self.num_workers))
        meter.end_round(active_vertices=self.n)

        frontier = np.arange(self.n, dtype=np.int64)
        merged: np.ndarray | None = None
        superstep = 0
        bound = program.max_supersteps() or fixpoint_round_bound(self.n)
        while superstep < bound:
            if len(frontier) == 0:
                break
            central = (
                engine.adaptive_central_fraction is not None
                and len(frontier) < engine.adaptive_central_fraction * self.n
            )
            engine._central_mode = central
            meter.begin_round(
                f"superstep-{superstep}" + ("-central" if central else ""),
                barrier=not central,
            )
            computed = len(frontier)
            self._charge_compute(frontier, central, messages=min(superstep, 1))
            if superstep == 0:
                senders, labels = seeds, seed_labels
            else:
                senders, labels = rule.relax(values, frontier, merged)
            frontier, merged = self._deliver(senders, labels + rule.hop, central)
            meter.end_round(active_vertices=computed)
            superstep += 1
        else:
            raise RuntimeError(
                f"{type(program).__name__} exceeded {bound} supersteps"
            )

        self._release_queued()
        return PregelResult(
            values=dict(zip(self.ids.tolist(), values.tolist())),
            supersteps=superstep,
            aggregated={},
        )

    # -- charging helpers ---------------------------------------------

    def _charge_compute(
        self, frontier: np.ndarray, central: bool, messages: int
    ) -> None:
        """One op per computed vertex plus one per digested message."""
        if central:
            ops = np.zeros(self.num_workers, dtype=np.int64)
            ops[0] = len(frontier) * (1 + messages)
        else:
            ops = np.bincount(
                self.workers[frontier], minlength=self.num_workers
            ) * (1 + messages)
        charge_ops(self.engine.meter, ops)

    def _deliver(
        self, senders: np.ndarray, offers: np.ndarray, central: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand sends over the CSR, charge them, run the barrier.

        Returns the next superstep's ``(frontier, merged)``.
        """
        positions, counts = csr_gather(self.offsets, senders)
        flat_dst = self.targets[positions]
        if central:
            flat_src_w = np.zeros(len(positions), dtype=np.int64)
        else:
            flat_src_w = np.repeat(self.workers[senders], counts)

        # Sender-side combining: one wire message per distinct
        # (target, source worker) pair, one combine op per duplicate.
        pair_keys, pair_offers, group_sizes = min_by_key(
            flat_dst * self.num_workers + flat_src_w,
            np.repeat(offers, counts),
            sizes=True,
        )
        pair_dst = pair_keys // self.num_workers
        pair_src_w = pair_keys % self.num_workers
        pair_dst_w = (
            np.zeros(len(pair_dst), dtype=np.int64)
            if central
            else self.workers[pair_dst]
        )
        self._charge_messages(pair_src_w, pair_dst_w)
        charge_ops(
            self.engine.meter,
            np.bincount(
                pair_src_w,
                weights=(group_sizes - 1).astype(np.float64),
                minlength=self.num_workers,
            ),
        )
        self._queue_memory(pair_dst_w)

        # Receiver-side merge of the per-worker combined messages.
        new_frontier, merged = min_by_key(pair_dst, pair_offers)
        self._barrier_memory(new_frontier, central)
        return new_frontier, merged

    def _charge_messages(
        self, src_workers: np.ndarray, dst_workers: np.ndarray
    ) -> None:
        """One ``message_bytes`` message per (src, dst) worker pair."""
        charge_pair_messages(
            self.engine.meter, src_workers, dst_workers, self.num_workers,
            self.payload,
        )

    def _queue_memory(self, dst_workers: np.ndarray) -> None:
        """Allocate queued-message buffers on the receiving workers."""
        engine, meter = self.engine, self.engine.meter
        per_worker = (
            np.bincount(dst_workers, minlength=self.num_workers)
            * self.message_memory
        )
        for worker in np.nonzero(per_worker)[0]:
            engine._message_bytes_queued[worker] += per_worker[worker]
            meter.allocate_memory(int(worker), float(per_worker[worker]))

    def _barrier_memory(self, new_frontier: np.ndarray, central: bool) -> None:
        """Release queued buffers, re-account the merged inbox."""
        self._release_queued()
        if len(new_frontier) == 0:
            return
        if central:
            receivers = np.zeros(len(new_frontier), dtype=np.int64)
        else:
            receivers = self.workers[new_frontier]
        self._queue_memory(receivers)

    def _release_queued(self) -> None:
        """Release all queued message memory (scalar barrier step)."""
        engine, meter = self.engine, self.engine.meter
        for worker in range(self.num_workers):
            meter.release_memory(worker, engine._message_bytes_queued[worker])
            engine._message_bytes_queued[worker] = 0.0


class PageRankBulkRunner(BulkSuperstepRunner):
    """Vectorized fixed-iteration PageRank with exact scalar costs.

    PageRank does not fit :class:`BulkSuperstepRunner`'s
    frontier/min-combiner shape: every vertex computes every
    superstep, there is no combiner (every arc is one wire message and
    one queued buffer), and the inbox reduction is a *float sum* whose
    result depends on operand order. The scalar engine appends outbox
    messages in ascending-sender order (the compute set iterates the
    sorted vertex states) and each vertex folds its inbox
    left-to-right from ``0.0`` — ``np.add.at`` over the natural CSR
    arc stream performs exactly those additions in exactly that order,
    so bulk ranks are bit-identical to the scalar path (unlike
    ``np.add.reduceat``, whose pairwise summation is not).
    """

    def __init__(self, engine, program):
        super().__init__(engine, program, rule=None)

    def run(self):
        """Execute ``iterations`` update rounds; scalar-identical."""
        from repro.platforms.pregel.engine import PregelResult

        engine, meter, program = self.engine, self.engine.meter, self.program
        n, num_workers = self.n, self.num_workers
        damping, iterations = program.damping, program.iterations

        meter.begin_round("init")
        charge_ops(meter, np.bincount(self.workers, minlength=num_workers))
        meter.end_round(active_vertices=n)
        if n == 0:
            return PregelResult(values={}, supersteps=0, aggregated={})

        engine._central_mode = False
        out_degrees = self.offsets[1:] - self.offsets[:-1]
        flat_src = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
        flat_dst = self.targets
        src_workers = self.workers[flat_src]
        dst_workers = self.workers[flat_dst]
        degrees_float = out_degrees.astype(np.float64)
        in_counts = np.bincount(flat_dst, minlength=n).astype(np.float64)
        vertex_ops = np.bincount(self.workers, minlength=num_workers)
        message_ops = np.bincount(
            self.workers, weights=in_counts, minlength=num_workers
        )

        values = np.full(n, 1.0 / n, dtype=np.float64)
        base = (1.0 - damping) / n
        shares: np.ndarray | None = None  # per-arc messages in flight
        for superstep in range(iterations + 1):
            meter.begin_round(f"superstep-{superstep}", barrier=True)
            if superstep == 0:
                charge_ops(meter, vertex_ops)
            else:
                # One op per vertex plus one per digested message
                # (each vertex receives exactly its in-degree shares).
                charge_ops(meter, vertex_ops + message_ops)
                accumulated = np.zeros(n, dtype=np.float64)
                np.add.at(accumulated, flat_dst, shares)
                values = base + damping * accumulated
            if superstep < iterations:
                shares = values[flat_src] / degrees_float[flat_src]
                self._charge_messages(src_workers, dst_workers)
                self._queue_memory(dst_workers)  # outbox during compute
                self._release_queued()  # barrier: inbox + outbox
                self._queue_memory(dst_workers)  # re-account new inbox
            else:
                shares = None
                self._release_queued()
            meter.end_round(active_vertices=n)
        self._release_queued()
        return PregelResult(
            values={
                int(vertex): float(value)
                for vertex, value in zip(self.ids, values)
            },
            supersteps=iterations + 1,
            aggregated={},
        )
