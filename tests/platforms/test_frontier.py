"""Unit tests for the shared min-label frontier core.

Each array primitive of :mod:`repro.platforms.frontier` is checked
against a plain-Python reference on the edge cases the six bulk
engines hand it: empty input, a single key, zero-degree rows, and
sparse or negative ids. The rules are checked against the scalar
programs' semantics, and :func:`runs_kernel` against subclassing.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import UNREACHABLE
from repro.platforms.frontier import (
    BFS,
    CONN,
    csr_gather,
    distinct,
    min_by_key,
    runs_kernel,
)
from repro.platforms.gas.programs import GASBFSProgram, GASConnProgram
from repro.platforms.hashing import hash_worker, hash_workers
from repro.platforms.pregel.programs import BFSProgram, ConnProgram


def _ints(values):
    return np.asarray(values, dtype=np.int64)


def _reference_min(keys, values):
    expected: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for key, value in zip(keys, values):
        expected[key] = min(expected.get(key, value), value)
        sizes[key] = sizes.get(key, 0) + 1
    return expected, sizes


class TestMinByKey:
    def test_matches_scalar_min_grouping(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 20, size=200)
        values = rng.integers(-50, 50, size=200)
        got_keys, minima, sizes = min_by_key(keys, values, sizes=True)
        expected, expected_sizes = _reference_min(keys.tolist(), values.tolist())
        assert got_keys.tolist() == sorted(expected)
        assert dict(zip(got_keys.tolist(), minima.tolist())) == expected
        assert dict(zip(got_keys.tolist(), sizes.tolist())) == expected_sizes

    @pytest.mark.parametrize(
        "keys, values",
        [
            ([], []),
            ([7], [3]),
            ([5, 5, 5], [9, -2, 4]),
            ([-4, 1_000_000_007, -4, 12, 1_000_000_007], [1, 2, -3, 4, 0]),
        ],
        ids=["empty", "single", "one-key", "sparse-negative"],
    )
    def test_edge_cases_match_the_dict_reference(self, keys, values):
        got_keys, minima, sizes = min_by_key(_ints(keys), _ints(values), sizes=True)
        expected, expected_sizes = _reference_min(keys, values)
        assert got_keys.tolist() == sorted(expected)
        assert dict(zip(got_keys.tolist(), minima.tolist())) == expected
        assert dict(zip(got_keys.tolist(), sizes.tolist())) == expected_sizes
        assert len(min_by_key(_ints(keys), _ints(values))) == 2

    @pytest.mark.parametrize(
        "keys", [[], [3], [4, 4], [9, -1, 9, 0, -1, 10**12]]
    )
    def test_distinct_is_the_sorted_key_set(self, keys):
        assert distinct(_ints(keys)).tolist() == sorted(set(keys))


class TestCsrGather:
    # Rows 0..4 with degrees 2, 0, 3, 0, 1.
    OFFSETS = _ints([0, 2, 2, 5, 5, 6])

    @pytest.mark.parametrize(
        "rows", [[], [1], [1, 3], [2, 0, 4], [4, 4, 1, 2]],
        ids=["empty", "zero-degree", "all-zero", "mixed", "repeated"],
    )
    def test_walks_each_row_slice_in_turn(self, rows):
        positions, counts = csr_gather(self.OFFSETS, _ints(rows))
        offsets = self.OFFSETS.tolist()
        expected = [
            position
            for row in rows
            for position in range(offsets[row], offsets[row + 1])
        ]
        assert positions.tolist() == expected
        assert counts.tolist() == [offsets[r + 1] - offsets[r] for r in rows]


class TestRules:
    IDS = _ints([-5, 2, 9, 40])

    def test_bfs_seeds_only_a_present_source(self):
        assert [a.tolist() for a in BFS(9).seeds(self.IDS)] == [[2], [0]]
        assert [a.tolist() for a in BFS(3).seeds(self.IDS)] == [[], []]
        assert BFS(9).initial_values(self.IDS).tolist() == [UNREACHABLE] * 4

    def test_conn_seeds_every_vertex_with_its_id(self):
        indices, labels = CONN().seeds(self.IDS)
        assert indices.tolist() == [0, 1, 2, 3]
        assert labels.tolist() == self.IDS.tolist()

    def test_relax_writes_only_accepted_offers(self):
        values = _ints([UNREACHABLE, 4, UNREACHABLE, 0])
        accepted, labels = BFS.relax(values, _ints([0, 1, 3]), _ints([2, 2, 2]))
        assert (accepted.tolist(), labels.tolist()) == ([0], [2])
        assert values.tolist() == [2, 4, UNREACHABLE, 0]
        labels_now = _ints([-5, 2, 9, 40])
        accepted, _ = CONN.relax(labels_now, _ints([1, 2, 3]), _ints([2, -5, 9]))
        assert accepted.tolist() == [2, 3]
        assert labels_now.tolist() == [-5, 2, -5, 9]


def test_rules_name_the_combiner_their_programs_use():
    for program in (BFSProgram(0), ConnProgram()):
        assert program.combiner() is program.bulk_step().combiner
    for program in (GASBFSProgram(0), GASConnProgram()):
        assert program.gather_sum(3, 5) == program.bulk_rounds().combiner(3, 5)


class TestRunsKernel:
    class Base:
        def kernel(self):
            """Declares the kernel."""

        def compute(self):
            """The scalar hook the kernel reproduces."""

    def test_declaring_class_and_plain_subclass_run_the_kernel(self):
        class Plain(self.Base):
            pass

        assert runs_kernel(self.Base(), ("kernel",), ("compute",))
        assert runs_kernel(Plain(), ("kernel",), ("compute",))

    def test_overridden_hook_falls_back(self):
        class Changed(self.Base):
            def compute(self):
                """Different semantics."""

        assert not runs_kernel(Changed(), ("kernel",), ("compute",))

    def test_redeclared_kernel_takes_over(self):
        class Redeclared(self.Base):
            def kernel(self):
                """Its own kernel."""

            def compute(self):
                """Its own semantics."""

        assert runs_kernel(Redeclared(), ("kernel",), ("compute",))


@pytest.mark.parametrize("buckets", [1, 3, 10])
def test_hash_workers_matches_the_scalar_hash(buckets):
    keys = [0, 1, 7, -1, -123456789, 2**40 + 3, 100_000]
    assert hash_workers(_ints(keys), buckets).tolist() == [
        hash_worker(key, buckets) for key in keys
    ]
