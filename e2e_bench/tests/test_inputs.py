"""Pinned inputs, seed determinism, and the archive's read check."""

import random

import pytest

from e2e_bench import archive
from e2e_bench.archive import (
    ArchiveRunner,
    Op,
    archive_rows,
    check,
    expected_answers,
    fill_batches,
    pass_ops,
)
from e2e_bench.workloads import SUITES, PinMismatch
from repro.core.results_db import ResultsDatabase
from repro.datasets import load_dataset


@pytest.mark.parametrize("name", sorted(SUITES))
def test_default_seed_generates_the_pinned_graph(name):
    workload = SUITES[name]
    graph = load_dataset(workload.dataset, seed=workload.dataset_seed(0))
    assert (graph.num_vertices, graph.num_edges) == (workload.vertices, workload.edges)
    workload.check_counts(0, graph.num_vertices, graph.num_edges)


def test_count_drift_is_refused():
    workload = SUITES["bulk-scale"]
    with pytest.raises(PinMismatch):
        workload.check_counts(0, workload.vertices, workload.edges + 1)
    with pytest.raises(PinMismatch):
        workload.check_counts(7, workload.vertices + 1, workload.edges)
    with pytest.raises(PinMismatch):
        workload.check_counts(7, workload.vertices, workload.edges * 2)
    workload.check_counts(7, workload.vertices, workload.edges + 100)


def test_generated_graphs_follow_the_seed():
    workload = SUITES["road-frontier"]
    first = load_dataset(workload.dataset, seed=workload.dataset_seed(3))
    again = load_dataset(workload.dataset, seed=workload.dataset_seed(3))
    other = load_dataset(workload.dataset, seed=workload.dataset_seed(4))
    assert first.content_key() == again.content_key()
    assert first.content_key() != other.content_key()


def test_pinned_cell_lists():
    assert len(SUITES["ldbc-matrix"].cells) == 64
    assert len(SUITES["bulk-scale"].cells) == 12
    road = SUITES["road-frontier"]
    assert len(road.cells) == 16
    assert road.known_defects <= set(road.cells)
    assert len(road.known_defects) == 4


def test_archive_rows_and_ops_follow_the_seed():
    assert archive_rows(random.Random("a"), 50) == archive_rows(random.Random("a"), 50)
    assert archive_rows(random.Random("a"), 50) != archive_rows(random.Random("b"), 50)
    assert list(fill_batches(3)) == list(fill_batches(3))
    assert list(fill_batches(3)) != list(fill_batches(4))
    ops = pass_ops(random.Random("s"))
    assert ops == pass_ops(random.Random("s"))
    kinds = [op.kind for op in ops]
    assert kinds.count("import_submission") == archive.WRITES
    for kind, count in archive.READS.items():
        assert kinds.count(kind) == count


def _filled(tmp_path, batches):
    db = ResultsDatabase(tmp_path / "archive.jsonl")
    for rows in batches:
        db.import_submission(archive.submission(rows))
    return db


def test_expected_answers_match_a_replay(tmp_path):
    batches = [archive_rows(random.Random(f"m{i}"), 400) for i in range(3)]
    rng = random.Random("ops")
    cell = next(r for r in batches[0] if r["status"] == "success")
    workload = {"graph": cell["graph"], "algorithm": cell["algorithm"]}
    write = Op("import_submission", {"rows": archive_rows(rng, 300)})
    ops = [
        Op("leaderboard", workload),
        Op("query", {**workload, "status": "success"}),
        write,
        Op("best_runtime", {"platform": cell["platform"], **workload}),
        Op("query", {**workload, "status": "success"}),
        Op("leaderboard", workload),
    ]
    expected = expected_answers(batches, ops)
    db = _filled(tmp_path, batches)
    answers = [archive.call(db, op) for op in ops]
    assert [check(op, e, a) for op, e, a in zip(ops, expected, answers)] == [None] * 6
    assert expected[2] == 300
    assert expected[1] != expected[4]  # the write added matching rows
    assert answers[0] and answers[1] and answers[3] is not None


def test_read_check_catches_wrong_answers(tmp_path):
    batches = [archive_rows(random.Random("m"), 4000)]
    row = next(r for r in batches[0] if r["status"] == "success")
    workload = {"graph": row["graph"], "algorithm": row["algorithm"]}
    query = Op("query", {**workload, "status": "success"})
    cell = Op("best_runtime", {"platform": row["platform"], **workload})
    board = Op("leaderboard", workload)
    ops = [query, cell, board]
    expected = expected_answers(batches, ops)
    db = _filled(tmp_path, batches)
    rows, best, ranking = (archive.call(db, op) for op in ops)
    assert check(query, expected[0], rows[1:]) is not None
    assert check(query, expected[0], rows[::-1] + rows) is not None
    assert check(cell, expected[1], best * 2) is not None
    assert check(board, expected[2], [("nobody", 1.0)]) is not None
    assert len(ranking) > 1
    assert check(board, expected[2], ranking[::-1]) is not None
    assert check(board, expected[2], ranking + ranking[:1]) is not None


def test_archive_pass_checks_every_read(tmp_path, monkeypatch):
    monkeypatch.setattr(archive, "FILL_BATCHES", 10)
    runner = ArchiveRunner(0, tmp_path)
    runner.setup(None)
    plain = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert plain.unexpected == [] and traced.unexpected == []
    assert plain.fingerprint == traced.fingerprint
    layers = traced.layers
    assert layers["results_db.bytes_read_per_row_returned"] >= layers[
        "results_db.bytes_per_row"
    ] > 0
    assert layers["trace.self_residual_share"] < 0.01
    # Lose half the archive: reads now disagree with the benchmark's
    # copy and count as failed operations.
    lines = runner.base.read_text().splitlines(keepends=True)
    runner.base.write_text("".join(lines[: len(lines) // 2]))
    broken = runner.run_pass(traced=False)
    assert broken.unexpected
    assert "failed" in broken.statuses
