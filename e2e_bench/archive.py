"""The ``results-archive`` workload: a closed loop with one client.

Set-up fills a :class:`~repro.core.results_db.ResultsDatabase` with
:data:`FILL_BATCHES` seeded submissions of :data:`BATCH` rows through
``import_submission``. A pass copies that archive and runs the
:data:`READS` reads and :data:`WRITES` writes (one ``BATCH``-row
``import_submission`` each) in a seeded order, each sent when the
previous one returned. The pass wall time is the sum of the operation
latencies.

The read mix follows the callers in the program: the ``leaderboard``
command is the only one that reads the archive, so most reads are
``leaderboard(graph, algorithm)``; the rest are ``best_runtime`` of one
cell and the ``query`` that ``leaderboard`` issues, unranked. The
program's only writer, ``run --results-db``, appends one suite's rows;
here a write is a 64-row submission. The row contents (status split,
runtime distribution, uniform platform/graph/algorithm picks) and the
uniform choice of the read's graph and algorithm are assumptions, not
observed traffic.

Every read is checked against an answer the benchmark derived from its
own copy of the rows: :func:`expected_answers` streams the seeded rows
once, before set-up, and keeps only a digest of each right answer, so
the benchmark holds no copy of the archive while the program runs. The
check runs between operations and is not timed.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from e2e_bench.measures import median, tail_percentile
from e2e_bench.suite import PassResult
from e2e_bench.tracing import Span, Tracer, self_time_residual
from e2e_bench.workloads import ALL_ALGORITHMS, ALL_PLATFORMS
from repro.core.results_db import ResultsDatabase, StoredResult

BATCH = 64
FILL_BATCHES = 313
#: Reads per pass, by operation. A pass is kept short (ten operations)
#: so that a run holds many passes and reports their median.
READS = {"leaderboard": 6, "best_runtime": 1, "query": 1}
WRITES = 2

GRAPHS = (
    *(f"graph500-{scale}" for scale in range(7, 15)),
    "road-16",
    "road-32",
    "road-64",
    "road-128",
    "amazon",
    "youtube",
    "livejournal",
    "patents",
    "wikipedia",
)
WRITE = "import_submission"


def archive_rows(rng: random.Random, count: int) -> list[dict]:
    """``count`` plausible result rows drawn from ``rng``."""
    rows = []
    for _ in range(count):
        status = rng.choices(("success", "failed", "invalid"), (90, 7, 3))[0]
        ok = status == "success"
        runtime = rng.lognormvariate(0.0, 1.5) if ok else None
        rows.append(
            {
                "submitted_at": 1.7e9 + rng.random() * 3e7,
                "platform": rng.choice(ALL_PLATFORMS),
                "graph": rng.choice(GRAPHS),
                "algorithm": rng.choice(ALL_ALGORITHMS),
                "status": status,
                "runtime_seconds": runtime,
                "kteps": rng.uniform(1.0, 1e4) if ok else None,
                "failure_reason": None
                if ok
                else rng.choice(("time-limit", "out-of-memory", "wrong output")),
                "cluster": rng.choice(("cluster-10", "single-192g")),
                "dominant_chokepoint": rng.choice("CNDB"),
                "num_rounds": rng.randint(1, 600),
                "remote_bytes": rng.uniform(0.0, 1e9),
                "max_skew": rng.uniform(1.0, 4.0),
                "runtime_mean": runtime,
                "runtime_std": runtime * rng.uniform(0.0, 0.1) if ok else None,
                "num_repetitions": rng.randint(1, 5) if ok else None,
            }
        )
    return rows


def fill_batches(seed: int) -> Iterator[list[dict]]:
    """The set-up submissions' rows, one batch at a time."""
    rng = random.Random(f"results-archive/{seed}/fill")
    for _ in range(FILL_BATCHES):
        yield archive_rows(rng, BATCH)


def submission(rows: list[dict]) -> dict:
    return {
        "schema": ResultsDatabase.SUBMISSION_SCHEMA,
        "system": {"client": "e2e_bench"},
        "results": rows,
    }


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict


def pass_ops(rng: random.Random) -> list[Op]:
    """One pass: the :data:`READS` and :data:`WRITES`, shuffled."""
    kinds = [kind for kind, count in READS.items() for _ in range(count)]
    kinds += [WRITE] * WRITES
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == WRITE:
            ops.append(Op(WRITE, {"rows": archive_rows(rng, BATCH)}))
            continue
        workload = {
            "graph": rng.choice(GRAPHS),
            "algorithm": rng.choice(ALL_ALGORITHMS),
        }
        if kind == "best_runtime":
            ops.append(Op(kind, {"platform": rng.choice(ALL_PLATFORMS), **workload}))
        elif kind == "query":
            ops.append(Op(kind, {**workload, "status": "success"}))
        else:
            ops.append(Op(kind, workload))
    return ops


def call(db: ResultsDatabase, op: Op):
    if op.kind == WRITE:
        return db.import_submission(submission(op.args["rows"]))
    return getattr(db, op.kind)(**op.args)


def rows_digest(rows: Iterable[StoredResult]) -> tuple[int, str]:
    """Row count and a hash of the rows' exact values, in order."""
    digest = hashlib.sha256()
    count = 0
    for row in rows:
        digest.update(repr(row).encode())
        count += 1
    return count, digest.hexdigest()


class _Answer:
    """The right answer to one read, built as the archive's rows stream by."""

    def __init__(self, op: Op):
        self.op = op
        self.rows = hashlib.sha256()
        self.count = 0
        self.best: dict[str, float] = {}

    def add(self, row: StoredResult) -> None:
        # Every read filters on (graph, algorithm) and successful rows;
        # the caller has matched the first two.
        if row.status != "success":
            return
        if self.op.kind == "query":
            self.rows.update(repr(row).encode())
            self.count += 1
        elif row.runtime_seconds is not None and (
            self.op.kind == "leaderboard" or row.platform == self.op.args["platform"]
        ):
            best = self.best.get(row.platform, row.runtime_seconds)
            self.best[row.platform] = min(best, row.runtime_seconds)

    def expected(self):
        if self.op.kind == "query":
            return self.count, self.rows.hexdigest()
        if self.op.kind == "best_runtime":
            return self.best.get(self.op.args["platform"])
        return self.best


def expected_answers(fill: Iterable[list[dict]], ops: list[Op]) -> list:
    """What each of ``ops`` must return after the ``fill`` rows were stored.

    One pass over the rows: a read sees every fill row and the rows of
    the writes before it. A query's answer is kept as
    :func:`rows_digest`, a leaderboard's as the best runtime per
    platform, and a write's as the number of rows it adds.
    """
    answers = {i: _Answer(op) for i, op in enumerate(ops) if op.kind != WRITE}
    by_workload: dict[tuple[str, str], list[tuple[int, _Answer]]] = {}
    for i, answer in answers.items():
        key = (answer.op.args["graph"], answer.op.args["algorithm"])
        by_workload.setdefault(key, []).append((i, answer))

    def store(rows: list[dict], position: int) -> None:
        for row in rows:
            readers = by_workload.get((row["graph"], row["algorithm"]), ())
            record = StoredResult(**row)
            for i, answer in readers:
                if i > position:
                    answer.add(record)

    for rows in fill:
        store(rows, -1)
    for position, op in enumerate(ops):
        if op.kind == WRITE:
            store(op.args["rows"], position)
    return [
        answers[i].expected() if i in answers else len(op.args["rows"])
        for i, op in enumerate(ops)
    ]


def check(op: Op, expected, answer) -> str | None:
    """Why ``answer`` to ``op`` is wrong, or ``None``."""
    if op.kind == WRITE or op.kind == "best_runtime":
        correct = answer == expected
    elif op.kind == "query":
        correct = rows_digest(answer) == expected
    else:
        runtimes = [runtime for _platform, runtime in answer]
        correct = (
            len(answer) == len(expected)
            and dict(answer) == expected
            and runtimes == sorted(runtimes)
        )
    return None if correct else f"{op.kind} {op.args.keys()}: wrong answer"


def read_bytes() -> int:
    """Bytes this process has read through system calls so far."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


class ArchiveRunner:
    """Set-up and timed passes of the ``results-archive`` workload."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Every pass runs the same operations on a fresh copy of the
        # filled archive, so passes (traced or not) are comparable.
        self.ops = pass_ops(random.Random(f"results-archive/{seed}/ops"))
        self.expected = expected_answers(fill_batches(seed), self.ops)
        self.base: Path | None = None
        self._serial = 0

    def describe(self) -> str:
        reads = ", ".join(f"{count} {kind}" for kind, count in READS.items())
        return (
            f"ResultsDatabase of {FILL_BATCHES * BATCH} rows ({FILL_BATCHES} "
            f"submissions of {BATCH}); a pass is {reads} reads and {WRITES} "
            f"writes of {BATCH} rows, one client, closed loop"
        )

    def setup(self, tracer: Tracer | None) -> float:
        """Fill a fresh archive; returns the seconds spent storing rows.

        The rows are drawn again from the seed, one submission at a
        time, outside the timed calls.
        """
        self._serial += 1
        path = self.workdir / f"archive-{self._serial}.jsonl"
        db = ResultsDatabase(path)
        elapsed = 0.0
        for rows in fill_batches(self.seed):
            document = submission(rows)
            start = time.perf_counter()
            db.import_submission(document)
            elapsed += time.perf_counter() - start
        if self.base is not None:
            self.base.unlink()
        self.base = path
        return elapsed

    def run_pass(self, traced: bool) -> PassResult:
        self._serial += 1
        path = self.workdir / f"pass-{self._serial}.jsonl"
        shutil.copyfile(self.base, path)
        db = ResultsDatabase(path)
        tracer = Tracer() if traced else None
        latencies, statuses, unexpected, answers = [], [], [], []
        gc.collect()
        for op, expected in zip(self.ops, self.expected):
            answer, latency, error = self._timed_call(db, op, tracer)
            latencies.append(latency)
            problem = error or check(op, expected, answer)
            statuses.append("success" if problem is None else "failed")
            if problem is not None:
                unexpected.append(problem)
            answers.append(len(answer) if isinstance(answer, list) else answer)
        wall = sum(latencies)
        result = PassResult(
            wall=wall,
            latencies=latencies,
            statuses=statuses,
            unexpected=unexpected,
            fingerprint=tuple(answers),
        )
        if tracer is not None:
            result.spans = tracer.spans
            result.layers = archive_layers(tracer.spans, wall)
            rows = FILL_BATCHES * BATCH + WRITES * BATCH
            result.layers["results_db.bytes_per_row"] = path.stat().st_size / rows
        path.unlink()
        return result

    @staticmethod
    def _timed_call(db, op, tracer):
        """``(answer, seconds, error)`` of one operation."""
        error = None
        answer = None
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = call(db, op)
            elif op.kind == WRITE:
                with tracer.span("results_db.import_submission"):
                    answer = call(db, op)
            else:
                with tracer.span(f"results_db.{op.kind}") as span:
                    before = read_bytes()
                    answer = call(db, op)
                    span.attrs["read_bytes"] = read_bytes() - before
                    span.attrs["returned"] = (
                        len(answer) if isinstance(answer, list) else 1
                    )
        except Exception as exc:  # a raising operation is a failed operation
            error = f"{op.kind} {op.args.keys()}: {type(exc).__name__}: {exc}"
        return answer, time.perf_counter() - start, error


def _split(spans: list[Span]) -> tuple[list[Span], list[Span]]:
    """``(reads, writes)`` among the database spans."""
    writes = [s for s in spans if s.name == "results_db.import_submission"]
    reads = [s for s in spans if s.name != "results_db.import_submission"]
    return reads, writes


def archive_layers(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced archive pass."""
    reads, _writes = _split(spans)
    read = sum(span.attrs["read_bytes"] for span in reads)
    returned = sum(span.attrs["returned"] for span in reads)
    return {
        "results_db.bytes_read_per_row_returned": (
            read / returned if returned else 0.0
        ),
        "trace.self_residual_share": self_time_residual(spans, wall),
    }


def latency_layers(spans: list[Span]) -> dict[str, float]:
    """Read and write medians and the operation tail over a run's spans.

    Taken over every traced pass of the run together: one pass holds
    too few operations for a tail.
    """
    reads, writes = _split(spans)
    _q, tail = tail_percentile([span.duration for span in spans])
    return {
        "results_db.query_ms_p50": 1000.0 * median([span.duration for span in reads]),
        "results_db.submit_ms_p50": 1000.0 * median([span.duration for span in writes]),
        "results_db.op_tail_ms": 1000.0 * tail,
    }
