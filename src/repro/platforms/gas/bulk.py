"""Vectorized (bulk) round execution for the GAS engine.

The scalar engine runs Python-level ``gather``/``apply``/``scatter``
calls per incident arc and per active vertex, with one ``CostMeter``
charge per event. For the min-label programs — BFS distance pulling
and HashMin label propagation — a whole round collapses into a
handful of CSR array operations: the rule, the CSR gather, the
min-combine and the per-worker charging come from
:mod:`repro.platforms.frontier`, and this module keeps only
PowerGraph's cost semantics.

The contract, verified by ``tests/test_bulk_equivalence.py``: a bulk
run produces *bit-identical* outputs and cost profiles to the scalar
path. The charge structure below therefore mirrors
``GASEngine._run_rounds`` exactly:

* gather — one op per incident arc of every active vertex, on the
  worker that owns the edge (charged whether or not the arc
  contributes);
* mirror→master — per distinct ``(vertex, worker)`` pair holding a
  partial, one ``gather_bytes`` message to the master when the holder
  is not the master itself, plus one combine op on the master;
* apply — one op per active vertex on its master; when the value
  changed, one ``value_bytes`` message from the master to every
  mirror;
* scatter — one op per incident arc on the owning worker.

A program opts in by returning a :class:`~repro.platforms.frontier.
MinLabelRule` from :meth:`~repro.platforms.gas.engine.GASProgram.
bulk_rounds`; the engine runs it only while the program's gather,
gather sum, apply and scatter are the ones that declared the rule,
and never for :meth:`~repro.platforms.gas.engine.GASEngine.run_async`.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import fixpoint_round_bound
from repro.platforms.frontier import (
    MinLabelRule,
    charge_ops,
    charge_pair_messages,
    csr_gather,
    distinct,
    min_by_key,
)

__all__ = ["BulkRoundRunner", "GASPageRankBulkRunner"]


class BulkRoundRunner:
    """Drives a :class:`~repro.platforms.frontier.MinLabelRule` with
    exact scalar-path costs.

    Instantiated by :meth:`GASEngine.run` when the program offers a
    rule and the engine's bulk path is enabled; reads the engine's
    vectorized vertex-cut arrays (arc owners, masters, mirror lists)
    so every per-worker tally matches the scalar loops bit for bit.
    Arcs pull: every incident arc of an active vertex offers its
    neighbor's label plus ``hop`` when the neighbor is
    :meth:`~repro.platforms.frontier.MinLabelRule.reached`.
    """

    def __init__(self, engine, program, rule: MinLabelRule | None):
        self.engine = engine
        self.program = program
        self.rule = rule
        graph = engine.graph
        self.ids = graph.vertices
        self.offsets, self.targets = graph.csr()
        self.n = graph.num_vertices
        self.num_workers = engine.spec.num_workers
        self.masters = engine.masters
        self.arc_workers = engine.arc_workers
        self.mirror_offsets, self.mirror_workers = engine.mirror_csr
        self.gather_payload = float(program.gather_bytes)
        self.value_payload = float(program.value_bytes)

    def run(self):
        """Execute to quiescence; returns a scalar-identical result."""
        from repro.platforms.gas.engine import GASResult

        meter, program, rule = self.engine.meter, self.program, self.rule
        values = rule.initial_values(self.ids)
        active, seed_labels = rule.seeds(self.ids)

        rounds = 0
        bound = program.max_rounds() or fixpoint_round_bound(self.n)
        while len(active) and rounds < bound:
            meter.begin_round(f"gas-{rounds}")
            arc_owner, arc_neighbor, arc_counts = self._expand_arcs(active)
            # Gather: one op per incident arc, on the edge's worker,
            # contributing or not.
            arc_ops = np.bincount(arc_owner, minlength=self.num_workers)
            charge_ops(meter, arc_ops)
            neighbor_values = values[arc_neighbor]
            offering = rule.reached(neighbor_values)
            gathered_vertices, gathered = self._exchange_partials(
                np.repeat(active, arc_counts)[offering],
                arc_owner[offering],
                neighbor_values[offering] + rule.hop,
            )
            # Apply: one op per active vertex on its master; the seeds
            # take their labels inside round 0's apply. Changed values
            # broadcast to the mirrors.
            charge_ops(
                meter, np.bincount(self.masters[active], minlength=self.num_workers)
            )
            old_values = values[active]
            new_values = seed_labels if rounds == 0 else old_values.copy()
            slots = np.searchsorted(active, gathered_vertices)
            adopt = rule.accept(new_values[slots], gathered)
            new_values[slots[adopt]] = gathered[adopt]
            changed = new_values != old_values
            self._broadcast_changes(active[changed])
            # Scatter: one op per incident arc on the edge's worker; a
            # changed vertex wakes all of its neighbors.
            charge_ops(meter, arc_ops)
            next_active = distinct(arc_neighbor[np.repeat(changed, arc_counts)])
            values[active] = new_values
            meter.end_round(active_vertices=len(active))
            active = next_active
            rounds += 1
        if len(active):
            raise RuntimeError(
                f"{type(program).__name__} exceeded {bound} rounds"
            )
        return GASResult(
            values=dict(zip(self.ids.tolist(), values.tolist())),
            rounds=rounds,
            replication_factor=self.engine.replication_factor,
        )

    # -- phase helpers ------------------------------------------------

    def _expand_arcs(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incident arcs of the active set from the CSR arrays.

        Returns ``(owner_workers, neighbor_indices, per_vertex_counts)``
        grouped by active vertex — the same arc enumeration the scalar
        gather and scatter loops walk.
        """
        positions, counts = csr_gather(self.offsets, active)
        return self.arc_workers[positions], self.targets[positions], counts

    def _exchange_partials(
        self,
        contrib_vertices: np.ndarray,
        contrib_workers: np.ndarray,
        contributions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Min-combine contributions per (vertex, worker), sync to masters.

        Returns the sorted vertices that gathered anything and their
        combined values.
        """
        pair_keys, partials = min_by_key(
            contrib_vertices * self.num_workers + contrib_workers, contributions
        )
        pair_vertex = self._sync_partials(pair_keys)
        return min_by_key(pair_vertex, partials)

    def _sync_partials(self, pair_keys: np.ndarray) -> np.ndarray:
        """Charge the mirror→master sync of ``vertex * W + worker`` partials.

        One ``gather_bytes`` message per partial held off its vertex's
        master and one combine op per partial on the master, exactly
        like the scalar exchange. Returns each partial's vertex.
        """
        pair_vertex = pair_keys // self.num_workers
        pair_worker = pair_keys % self.num_workers
        pair_master = self.masters[pair_vertex]
        remote = pair_worker != pair_master
        charge_pair_messages(
            self.engine.meter,
            pair_worker[remote],
            pair_master[remote],
            self.num_workers,
            self.gather_payload,
        )
        charge_ops(
            self.engine.meter,
            np.bincount(pair_master, minlength=self.num_workers),
        )
        return pair_vertex

    def _broadcast_changes(self, changed: np.ndarray) -> None:
        """Master→mirror value messages for every changed vertex."""
        positions, counts = csr_gather(self.mirror_offsets, changed)
        charge_pair_messages(
            self.engine.meter,
            np.repeat(self.masters[changed], counts),
            self.mirror_workers[positions],
            self.num_workers,
            self.value_payload,
        )


class GASPageRankBulkRunner(BulkRoundRunner):
    """Vectorized fixed-iteration PageRank with exact scalar costs.

    PageRank's gather sum is a *float addition*, so the result depends
    on operand order and :class:`BulkRoundRunner`'s ``reduceat``-based
    exchange (pairwise summation) cannot reproduce the scalar path.
    The scalar engine folds contributions in two levels: per
    ``(vertex, worker)`` partial in incident-arc order, then
    mirror→master partials in dict-insertion (first-contributing-arc)
    order. ``np.add.at`` performs additions sequentially in index
    order, so streaming the arcs in that exact order gives bit-equal
    ranks.
    """

    def __init__(self, engine, program):
        super().__init__(engine, program, rule=None)

    def run(self):
        """Execute ``iterations`` synchronous rounds; scalar-identical."""
        from repro.platforms.gas.engine import GASResult

        meter, program = self.engine.meter, self.program
        n = self.n
        damping, iterations = program.damping, program.iterations
        values = np.full(n, 1.0 / n if n else 0.0, dtype=np.float64)
        applied = np.zeros(n, dtype=np.int64)
        degrees = (self.offsets[1:] - self.offsets[:-1]).astype(np.float64)
        base = (1.0 - damping) / n if n else 0.0

        active = (
            np.arange(n, dtype=np.int64)
            if iterations > 0
            else np.empty(0, dtype=np.int64)
        )
        rounds = 0
        while len(active):
            meter.begin_round(f"gas-{rounds}")
            arc_owner, arc_neighbor, arc_counts = self._expand_arcs(active)
            arc_ops = np.bincount(arc_owner, minlength=self.num_workers)
            charge_ops(meter, arc_ops)  # gather: one op per incident arc
            contributions = values[arc_neighbor] / degrees[arc_neighbor]
            gathered = self._exchange_sum_partials(
                np.repeat(active, arc_counts), arc_owner, contributions, active
            )
            # Apply on the masters; every vertex's (rank, iteration)
            # value changes, so every mirror hears about it.
            charge_ops(
                meter, np.bincount(self.masters[active], minlength=self.num_workers)
            )
            values[active] = base + damping * gathered
            applied[active] += 1
            self._broadcast_changes(active)
            charge_ops(meter, arc_ops)  # scatter: one op per incident arc
            meter.end_round(active_vertices=len(active))
            rounds += 1
            if rounds < iterations:
                active = np.unique(arc_neighbor)
            else:
                active = np.empty(0, dtype=np.int64)
        return GASResult(
            values={
                int(vertex): (float(rank), int(iteration))
                for vertex, rank, iteration in zip(self.ids, values, applied)
            },
            rounds=rounds,
            replication_factor=self.engine.replication_factor,
        )

    def _exchange_sum_partials(
        self,
        contrib_vertices: np.ndarray,
        contrib_workers: np.ndarray,
        contributions: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Float-sum partials per (vertex, worker), sync to masters.

        Same charge structure as :meth:`BulkRoundRunner._exchange_partials`
        but with order-preserving summation: ``np.add.at`` folds each
        pair's contributions in arc order (the scalar per-worker
        accumulation) and then folds the pairs per vertex in
        first-contributing-arc order (the scalar dict-insertion merge).
        Returns a dense gather sum aligned with ``active`` (0.0 where
        nothing gathered, which is exactly what the PageRank apply
        uses for a ``None`` gather).
        """
        gathered = np.zeros(len(active), dtype=np.float64)
        if len(contrib_vertices) == 0:
            return gathered
        key = contrib_vertices * self.num_workers + contrib_workers
        pair_keys, first, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        pair_partials = np.zeros(len(pair_keys), dtype=np.float64)
        np.add.at(pair_partials, inverse, contributions)
        pair_vertex = self._sync_partials(pair_keys)
        slots = np.searchsorted(active, pair_vertex)
        insertion = np.argsort(first, kind="stable")
        np.add.at(gathered, slots[insertion], pair_partials[insertion])
        return gathered
