"""One min-label frontier core for the round-based bulk engines.

BFS and CONN are one algorithm family, min-label propagation: every
vertex holds an int64 label, a vertex whose label just improved
offers ``label + hop`` along its arcs, each target keeps the smallest
offer, and a rule decides whether that offer replaces its label.
Giraph, GraphLab, GraphX, MapReduce, Stratosphere and Medusa each run
that step under their own cost semantics; this module is everything
they share, so each engine's bulk runner keeps only its charges, its
round and barrier boundaries, and its memory model:

* the rules — :class:`BFS` and :class:`CONN`: seed labels and seed
  set, ``hop``, ``accept(current, offer)`` and the scalar combiner
  (``min``) the vectorized reductions stand in for;
* :func:`csr_gather` — the concatenated arc positions of a set of CSR
  rows (``Graph.arcs_of``, mirror lists, record adjacency);
* :func:`distinct` and :func:`min_by_key` — a sort, a run-boundary
  mask and ``np.minimum.reduceat``, leaner than ``np.unique`` on the
  small per-round arrays;
* :func:`charge_ops`, :func:`charge_probes` and
  :func:`charge_pair_messages` — per-worker tallies charged through
  the batched :class:`~repro.core.cost.CostMeter` APIs;
* :func:`runs_kernel` — the dispatch guard: a program runs its
  declared kernel only while its scalar hooks are the ones the kernel
  was written against, so a subclass that changes the semantics (a
  program without the combiner, say) takes the scalar path.

Every charge is an integer-valued float, so one bulk charge of a
pre-summed per-worker total equals the scalar path's call sequence
bit for bit (``tests/test_bulk_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import UNREACHABLE

__all__ = [
    "MinLabelRule",
    "BFS",
    "CONN",
    "csr_gather",
    "distinct",
    "min_by_key",
    "charge_ops",
    "charge_probes",
    "charge_pair_messages",
    "runs_kernel",
]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class MinLabelRule:
    """A min-label propagation rule over dense vertex indices.

    Labels are int64 arrays indexed like ``graph.vertices`` (sorted
    ids). Subclasses set :attr:`hop` and define the initial labels,
    the seeds, which labels may be offered and which offers are
    accepted.
    """

    #: Added to a label when it is offered across an arc.
    hop = 0
    #: The scalar combiner (Pregel ``combiner``, GAS ``gather_sum``)
    #: every vectorized min-reduction stands in for.
    combiner = staticmethod(min)

    def initial_values(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Labels before the seeds are applied."""
        raise NotImplementedError

    def seeds(self, vertex_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, labels)`` of the first round's senders, ascending."""
        raise NotImplementedError

    def seeded(
        self, vertex_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(labels, seed indices, seed labels)``, the seeds applied."""
        values = self.initial_values(vertex_ids)
        seeds, labels = self.seeds(vertex_ids)
        values[seeds] = labels
        return values, seeds, labels

    @staticmethod
    def reached(values: np.ndarray) -> np.ndarray:
        """Which labels may be offered to neighbors."""
        return np.ones(len(values), dtype=bool)

    @staticmethod
    def accept(current: np.ndarray, offer: np.ndarray) -> np.ndarray:
        """Which offers replace the target's current label."""
        raise NotImplementedError

    @classmethod
    def relax(
        cls, values: np.ndarray, targets: np.ndarray, offers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write the accepted offers into ``values``.

        ``targets`` are distinct dense indices and ``offers`` the
        combined offer each receives. Returns the accepted targets and
        their new labels — the next round's senders. Needs no seeds,
        so it also works on the rule class itself.
        """
        adopt = cls.accept(values[targets], offers)
        accepted, labels = targets[adopt], offers[adopt]
        values[accepted] = labels
        return accepted, labels


class BFS(MinLabelRule):
    """Hop distances from ``source``: unreached vertices take the first
    (smallest) distance offered; the source seeds distance 0."""

    hop = 1

    def __init__(self, source: int):
        self.source = source

    def initial_values(self, vertex_ids):
        """Every vertex starts unreached."""
        return np.full(len(vertex_ids), UNREACHABLE, dtype=np.int64)

    def seeds(self, vertex_ids):
        """The source at distance 0 (nothing if it is absent)."""
        position = int(np.searchsorted(vertex_ids, self.source))
        if position < len(vertex_ids) and vertex_ids[position] == self.source:
            return (
                np.array([position], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )
        return _EMPTY, _EMPTY

    @staticmethod
    def reached(values):
        """Only reached vertices offer a distance."""
        return values != UNREACHABLE

    @staticmethod
    def accept(current, offer):
        """An unreached vertex adopts its first offer."""
        return current == UNREACHABLE


class CONN(MinLabelRule):
    """HashMin components: every vertex seeds its own id and adopts any
    strictly smaller label offered."""

    def initial_values(self, vertex_ids):
        """Every vertex is labeled with its own id."""
        return vertex_ids.astype(np.int64, copy=True)

    def seeds(self, vertex_ids):
        """Every vertex offers its own id."""
        return (
            np.arange(len(vertex_ids), dtype=np.int64),
            vertex_ids.astype(np.int64, copy=True),
        )

    @staticmethod
    def accept(current, offer):
        """A strictly smaller label wins."""
        return offer < current


# -- array primitives ------------------------------------------------------


def csr_gather(
    offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR slices of ``rows``, concatenated.

    Returns ``(positions, counts)``: ``positions`` walks each row's
    slice ``offsets[row]:offsets[row + 1]`` in turn, and ``counts``
    holds each row's length — the repeat counts that spread per-row
    values over its entries.
    """
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    bounds = np.cumsum(counts)
    positions = np.arange(int(bounds[-1]) if len(bounds) else 0, dtype=np.int64)
    positions += np.repeat(starts - (bounds - counts), counts)
    return positions, counts


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run in a sorted array."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys: a sort and a run-boundary mask."""
    ordered = np.sort(keys, kind="stable")
    return ordered[_run_starts(ordered)]


def min_by_key(
    keys: np.ndarray, values: np.ndarray, sizes: bool = False
) -> tuple[np.ndarray, ...]:
    """Minimum value per distinct key, keys ascending.

    Returns ``(keys, minima)``, plus each key's group size when
    ``sizes`` is set. The minimum of integers does not depend on the
    order of its operands, so any grouping of the same values gives
    the same result as the scalar ``min`` fold.

    Keys that densely cover ``[0, 4 * len(keys))`` — a wide frontier's
    arc targets — group by counting: a ``bincount`` and a
    ``np.minimum.at`` scatter, with no sort. Sparser or negative keys
    take a stable sort (the engines' keys arrive in long ascending
    runs, CSR slices), a run-boundary mask and ``np.minimum.reduceat``.
    """
    if len(keys) == 0:
        empty = (keys.astype(np.int64), values.astype(np.int64))
        return empty + (_EMPTY,) if sizes else empty
    if keys.min() >= 0 and keys.max() < 4 * len(keys):
        counts = np.bincount(keys)
        present = np.flatnonzero(counts)
        minima = np.full(len(counts), np.iinfo(values.dtype).max, values.dtype)
        np.minimum.at(minima, keys, values)
        result = (present, minima[present])
        return result + (counts[present],) if sizes else result
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.flatnonzero(_run_starts(ordered))
    result = (ordered[first], np.minimum.reduceat(values[order], first))
    if sizes:
        return result + (np.diff(first, append=len(ordered)),)
    return result


# -- per-worker charging ---------------------------------------------------


def charge_ops(meter, ops_per_worker: np.ndarray) -> None:
    """Charge per-worker compute-op tallies in bulk."""
    for worker in np.nonzero(ops_per_worker)[0]:
        meter.charge_compute_bulk(int(worker), float(ops_per_worker[worker]))


def charge_probes(meter, probes_per_worker: np.ndarray) -> None:
    """Charge per-worker random-access (hash probe) tallies in bulk."""
    for worker in np.nonzero(probes_per_worker)[0]:
        meter.charge_random_access(int(worker), float(probes_per_worker[worker]))


def charge_pair_messages(
    meter,
    src_workers: np.ndarray,
    dst_workers: np.ndarray,
    num_workers: int,
    payload: float,
) -> None:
    """Charge one ``payload``-byte message per (source, destination) pair."""
    pair_counts = np.bincount(
        src_workers * num_workers + dst_workers, minlength=num_workers**2
    )
    for index in np.nonzero(pair_counts)[0]:
        src, dst = divmod(int(index), num_workers)
        meter.charge_messages_bulk(src, dst, int(pair_counts[index]), payload)


# -- dispatch guard --------------------------------------------------------


def runs_kernel(program, kernel_hooks: tuple, scalar_hooks: tuple) -> bool:
    """Whether ``program`` may run the bulk kernel its class declares.

    The declaring class is the first class in the program's MRO that
    defines one of ``kernel_hooks``; its kernel reproduces the scalar
    hooks *it* sees. The kernel applies only while every one of
    ``scalar_hooks`` still resolves, on the program's own class, to
    that same function — a subclass that overrides a scalar hook
    without declaring a kernel of its own runs the scalar path.
    """
    cls = type(program)
    owner = next(
        (klass for klass in cls.__mro__ if any(h in vars(klass) for h in kernel_hooks)),
        None,
    )
    return owner is not None and all(
        getattr(cls, hook) is getattr(owner, hook) for hook in scalar_hooks
    )
