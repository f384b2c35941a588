"""The dataflow engine: charged primitives + the delta iteration.

Algorithms are written against a small set of dataflow operators, each
of which really executes and charges the cost meter:

* :meth:`DataflowEngine.expand` — join a workset against the
  hash-partitioned edge table (records shuffle to the edge partition);
* :meth:`DataflowEngine.aggregate` — groupBy + reduce over emitted
  records (a shuffle by key, then per-group combination);
* :meth:`DataflowEngine.join_solution` — indexed join against the
  solution set (one random-access probe per record);
* :meth:`DataflowEngine.update_solution` — apply deltas to the
  indexed state.

:meth:`DataflowEngine.delta_iteration` wires these into the
Stratosphere/Flink loop: iterate a step function on the workset until
it is empty, one barrier per iteration, only delta records ever
shuffled. BFS and CONN also run as vectorized delta iterations
(:mod:`repro.platforms.dataflow.bulk`) that charge the same operators
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.cost import ClusterSpec, CostMeter
from repro.core.workload import fixpoint_round_bound
from repro.platforms.hashing import hash_worker

__all__ = ["DataflowEngine", "DeltaIterationStats"]

#: Serialized bytes per workset/delta record on the wire.
RECORD_BYTES = 24.0
#: CPU ops per record an operator touches.
RECORD_CPU_OPS = 3.0
#: Resident bytes per indexed solution-set entry.
SOLUTION_ENTRY_BYTES = 40.0
#: Resident bytes per edge in the hash-partitioned edge table.
EDGE_BYTES = 16.0


@dataclass
class DeltaIterationStats:
    """What one delta iteration run did."""

    iterations: int = 0
    total_workset_records: int = 0
    total_solution_updates: int = 0


class DataflowEngine:
    """Executes dataflow programs over a partitioned edge table."""

    def __init__(
        self,
        adjacency: dict[int, tuple[int, ...]],
        spec: ClusterSpec,
        meter: CostMeter | None = None,
    ):
        self.adjacency = adjacency
        self.spec = spec
        self.meter = meter or CostMeter(spec)
        self.solution: dict[int, Any] = {}
        self._edges = sum(len(adj) for adj in adjacency.values())
        self._resident = (
            self._edges * EDGE_BYTES / max(spec.num_workers, 1)
        )
        # The edge table is resident per worker for the whole job.
        for worker in range(spec.num_workers):
            self.meter.allocate_memory(worker, self._resident)
        self._solution_bytes = 0.0

    def close(self) -> None:
        """Release the edge table and solution-set memory."""
        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, self._resident)
        self._release_solution()

    def _release_solution(self) -> None:
        per_worker = self._solution_bytes / max(self.spec.num_workers, 1)
        for worker in range(self.spec.num_workers):
            self.meter.release_memory(worker, per_worker)
        self._solution_bytes = 0.0

    # -- state -------------------------------------------------------------

    def create_solution_set(self, initial: dict[int, Any]) -> None:
        """Materialize the indexed solution set (charged memory)."""
        self.solution = dict(initial)
        self.reserve_solution(len(self.solution))

    def reserve_solution(self, entries: int) -> None:
        """Charge the memory of an ``entries``-sized solution set.

        :meth:`create_solution_set` charges through here; the bulk
        delta iteration, which keeps its solution in a dense array,
        calls it directly.
        """
        self._release_solution()
        self._solution_bytes = entries * SOLUTION_ENTRY_BYTES
        per_worker = self._solution_bytes / max(self.spec.num_workers, 1)
        for worker in range(self.spec.num_workers):
            self.meter.allocate_memory(worker, per_worker)

    # -- operators ------------------------------------------------------------

    @property
    def remote_fraction(self) -> float:
        """Share of shuffled records that cross the network.

        Hash partitioning over W workers keeps 1/W of the records
        local, so a (W-1)/W fraction is remote.
        """
        workers = self.spec.num_workers
        return (workers - 1) / workers if workers > 1 else 0.0

    def expand(
        self,
        workset: Iterable[tuple[int, Any]],
        emit: Callable[[int, Any, int], Iterable[tuple[int, Any]]],
    ) -> list[tuple[int, Any]]:
        """Join workset records with the edge table.

        ``emit(vertex, payload, neighbor)`` yields records per incident
        edge. Workset records shuffle to the worker owning the vertex's
        adjacency; emitted records are charged on that worker.
        """
        meter = self.meter
        out: list[tuple[int, Any]] = []
        count = 0
        for vertex, payload in workset:
            worker = hash_worker(vertex, self.spec.num_workers)
            count += 1
            produced = 0
            for neighbor in self.adjacency[vertex]:
                for record in emit(vertex, payload, neighbor):
                    out.append(record)
                    produced += 1
            meter.charge_compute(
                worker, (1 + len(self.adjacency[vertex]) + produced) * RECORD_CPU_OPS
            )
        # Workset records shuffle to the edge partitions.
        meter.charge_shuffle(
            count * RECORD_BYTES * self.remote_fraction, count=count
        )
        return out

    def aggregate(
        self,
        records: Iterable[tuple[int, Any]],
        combine: Callable[[Any, Any], Any],
    ) -> dict[int, Any]:
        """GroupBy key + reduce (records shuffle to the key's worker)."""
        meter = self.meter
        grouped: dict[int, Any] = {}
        count = 0
        remote_bytes = 0.0
        for key, value in records:
            count += 1
            remote_bytes += RECORD_BYTES
            if key in grouped:
                grouped[key] = combine(grouped[key], value)
            else:
                grouped[key] = value
            meter.charge_compute(
                hash_worker(key, self.spec.num_workers), RECORD_CPU_OPS
            )
        meter.charge_shuffle(remote_bytes * self.remote_fraction, count=count)
        return grouped

    def join_solution(
        self,
        candidates: dict[int, Any],
        accept: Callable[[int, Any, Any], Any | None],
    ) -> dict[int, Any]:
        """Probe the indexed solution set per candidate.

        ``accept(key, current, candidate)`` returns the new value or
        ``None`` to drop the candidate. Each probe is a random access —
        the price of delta sparsity.
        """
        meter = self.meter
        deltas: dict[int, Any] = {}
        for key, candidate in candidates.items():
            worker = hash_worker(key, self.spec.num_workers)
            meter.charge_random_access(worker, 1)
            updated = accept(key, self.solution.get(key), candidate)
            if updated is not None:
                deltas[key] = updated
        return deltas

    def update_solution(self, deltas: dict[int, Any]) -> None:
        """Write accepted deltas into the indexed state."""
        meter = self.meter
        for key, value in deltas.items():
            worker = hash_worker(key, self.spec.num_workers)
            meter.charge_random_access(worker, 1)
            self.solution[key] = value

    # -- the loop -----------------------------------------------------------------

    def delta_iteration(
        self,
        initial_solution: dict[int, Any],
        initial_workset: list[tuple[int, Any]],
        step: Callable[["DataflowEngine", list[tuple[int, Any]]], list[tuple[int, Any]]],
        max_iterations: int | None = None,
    ) -> DeltaIterationStats:
        """Run the Stratosphere/Flink delta-iteration loop.

        ``step(engine, workset)`` performs one iteration using the
        charged operators and returns the next workset. The loop ends
        when the workset empties — per-iteration cost tracks the
        frontier, never the whole graph. ``max_iterations`` defaults
        to :func:`~repro.core.workload.fixpoint_round_bound` of the
        graph's vertex count; reaching it raises.
        """
        if max_iterations is None:
            max_iterations = fixpoint_round_bound(len(self.adjacency))
        self.create_solution_set(initial_solution)
        stats = DeltaIterationStats()
        workset = list(initial_workset)
        while workset:
            if stats.iterations >= max_iterations:
                raise RuntimeError(
                    f"delta iteration exceeded {max_iterations} iterations"
                )
            self.meter.begin_round(f"delta-{stats.iterations}")
            stats.total_workset_records += len(workset)
            workset = step(self, workset)
            stats.total_solution_updates += len(workset)
            self.meter.end_round(active_vertices=len(workset))
            stats.iterations += 1
        return stats
