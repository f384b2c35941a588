"""Vectorized (bulk) kernel execution for the GPU engine.

The scalar engine runs one Python-level ``compute`` call per thread,
one ``_send`` (with its combiner call and outbox allocation) per
emitted message, and a Python loop over warps per kernel launch. For
the programs that offer a
:class:`~repro.platforms.frontier.MinLabelRule` — the same BFS and
HashMin rules the Giraph bulk path runs — a whole superstep instead
runs as numpy operations over the CSR arrays, with the propagation
step and the min-combine from :mod:`repro.platforms.frontier`.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. Cost semantics stay those of a dense GPU kernel, so the
charge structure mirrors ``GPUEngine._run_supersteps`` exactly:

* every launch covers all threads; a thread that does not compute
  does 1 unit of work, one that does ``1 + merged + degree`` (one unit
  per digested, already-combined message, plus its adjacency);
* a warp of 32 consecutive threads costs ``32 × max`` of its threads'
  work — a padded ``reshape(-1, 32).max(1)`` over the dense work
  array — and the device's cores share the lane ops;
* device-side combining keeps one outbox slot per distinct target,
  allocated in device memory; the consumed inbox is released after
  the kernel;
* the kernel launch + host sync replaces the cluster barrier.

All work units are integers, so the summed lane ops are exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import fixpoint_round_bound
from repro.platforms.frontier import MinLabelRule, min_by_key
from repro.platforms.gpu.engine import KERNEL_LAUNCH_SECONDS, WARP_SIZE
from repro.platforms.pregel.engine import MESSAGE_BYTES, PregelResult

__all__ = ["GPUBulkRunner"]


class GPUBulkRunner:
    """Drives a :class:`~repro.platforms.frontier.MinLabelRule` with
    exact GPU-path costs.

    Instantiated by :meth:`GPUEngine.run` when the program offers a
    rule and the engine's bulk path is enabled; shares the engine's
    meter, so device-memory accounting (resident graph, outbox slots)
    matches the scalar path bit for bit.
    """

    def __init__(self, engine, program, rule: MinLabelRule):
        self.engine = engine
        self.program = program
        self.rule = rule
        self.graph = engine.graph
        self.ids = self.graph.vertices
        self.n = self.graph.num_vertices
        self.degrees = self.graph.out_degrees()
        #: Device bytes per outbox slot: payload plus buffer overhead.
        self.slot_bytes = float(program.message_bytes) + MESSAGE_BYTES
        #: Threads padded up to whole warps.
        self.lanes = -(-self.n // WARP_SIZE) * WARP_SIZE

    def run(self) -> PregelResult:
        """Execute to halting; returns a scalar-identical result."""
        meter, rule = self.engine.meter, self.rule
        values, seeds, seed_labels = rule.seeded(self.ids)

        meter.begin_round("h2d-and-init")
        self._charge_kernel(np.ones(self.lanes, dtype=np.int64))
        meter.end_round(active_vertices=self.n)

        frontier = np.arange(self.n, dtype=np.int64)
        merged = None
        inbox_bytes = 0.0
        superstep = 0
        bound = self.program.max_supersteps() or fixpoint_round_bound(self.n)
        while superstep < bound:
            if len(frontier) == 0:
                break
            meter.begin_round(f"kernel-{superstep}", barrier=False)
            work = np.ones(self.lanes, dtype=np.int64)
            work[frontier] = 1 + min(superstep, 1) + self.degrees[frontier]
            if superstep == 0:
                senders, labels = seeds, seed_labels
            else:
                senders, labels = rule.relax(values, frontier, merged)
            computed = len(frontier)
            # Device-side combining: one outbox slot per distinct target.
            targets, counts = self.graph.arcs_of(senders)
            frontier, merged = min_by_key(
                targets, np.repeat(labels + rule.hop, counts)
            )
            outbox_bytes = len(frontier) * self.slot_bytes
            if outbox_bytes:
                meter.allocate_memory(0, outbox_bytes)
            self._charge_kernel(work)
            meter.release_memory(0, inbox_bytes)
            inbox_bytes = outbox_bytes
            meter.end_round(
                active_vertices=computed, barrier_seconds=KERNEL_LAUNCH_SECONDS
            )
            superstep += 1
        else:
            raise RuntimeError(
                f"{type(self.program).__name__} exceeded {bound} supersteps"
            )

        meter.release_memory(0, inbox_bytes)
        return PregelResult(
            values=dict(zip(self.ids.tolist(), values.tolist())),
            supersteps=superstep,
            aggregated={},
        )

    def _charge_kernel(self, work: np.ndarray) -> None:
        """Warp-granular compute charging for one kernel launch."""
        busiest = work.reshape(-1, WARP_SIZE).max(axis=1)
        lane_ops = float(WARP_SIZE * int(busiest.sum()))
        self.engine.meter.charge_compute(
            0, lane_ops / self.engine.spec.cores_per_worker
        )
