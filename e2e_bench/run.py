"""End-to-end benchmark of the Graphalytics harness.

Run from the repository root::

    python3 e2e_bench/run.py --workload ldbc-matrix --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: medians over the passes and
set-ups of the run, with timings scaled to the reference host by the
kernel in :mod:`e2e_bench.host`. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead (traced minus untraced wall time). Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Exit codes: 0 when a
result was printed, 2 when the program cannot be imported, 3 when the
generated inputs differ from the pinned ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from e2e_bench import host, measures  # noqa: E402
from e2e_bench.tracing import Tracer  # noqa: E402
from e2e_bench.workloads import (  # noqa: E402
    ALL_ALGORITHMS,
    ALL_PLATFORMS,
    ARCHIVE,
    SUITES,
    PinMismatch,
    WORKLOADS,
)

#: Set-up is repeated at least ``SETUP_MIN`` times and until
#: ``SETUP_SECONDS`` have gone (at most ``SETUP_MAX`` times), and its
#: median reported, so that work moved into set-up shows against its
#: bound even when one set-up takes milliseconds.
SETUP_MIN = 5
SETUP_MAX = 100
SETUP_SECONDS = 1.0

#: Largest accepted ``trace.self_residual_share``: the layers' self
#: times, less time counted twice by concurrent pool workers, must add
#: up to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.01

END_TO_END = (
    ("scaled_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("datagen.generate_s", "s"),
    ("datasets.store_s", "s"),
    ("datasets.load_s", "s"),
    *(
        (f"platforms.{platform}.{metric}", unit)
        for platform in ALL_PLATFORMS
        for metric, unit in (
            ("etl_s", "s"),
            ("run_s", "s"),
            ("rounds", "count"),
            ("ms_per_round", "ms"),
        )
    ),
    *((f"algorithms.{algorithm}.run_s", "s") for algorithm in ALL_ALGORITHMS),
    ("validation.validate_s", "s"),
    ("validation.calls", "count"),
    ("validation.distinct_refs", "count"),
    ("validation.reuse_ratio", "ratio"),
    ("core.self_s", "s"),
    ("core.critical_pair_s", "s"),
    ("core.pool_busy_share", "ratio"),
    ("results_db.query_ms_p50", "ms"),
    ("results_db.submit_ms_p50", "ms"),
    ("results_db.op_tail_ms", "ms"),
    ("results_db.bytes_read_per_row_returned", "B/row"),
    ("results_db.bytes_per_row", "B/row"),
    ("cost.sim_seconds_total", "sim_s"),
    ("trace.overhead_s", "s"),
    ("trace.self_residual_share", "ratio"),
    ("host.wall_s", "s"),
    ("host.setup_s", "s"),
    ("host.kernel_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_runner(workload: str, seed: int, workdir: Path):
    # Imported here: these modules import the program, which ``run``
    # first checks is importable from this checkout.
    if workload == ARCHIVE:
        from e2e_bench.archive import ArchiveRunner

        return ArchiveRunner(seed, workdir)
    from e2e_bench.suite import SuiteRunner

    return SuiteRunner(SUITES[workload], seed, workdir)


def set_up(runner, tracer) -> tuple[list[float], list[float]]:
    """Seconds of each repeated set-up, and of the host kernel timed
    before the first and after the last; the last set-up stays in place."""
    setups, kernel = [], [host.kernel_seconds()]
    while len(setups) < SETUP_MIN or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
    ):
        setups.append(runner.setup(tracer))
    kernel.append(host.kernel_seconds())
    return setups, kernel


def measure(runner, seconds: float, traced: bool) -> tuple[list, list[float]]:
    """Passes until the next one would end past ``seconds`` (at least one),
    and the seconds of the host kernel timed before each round and after
    the last.

    With tracing, each round is an untraced and a traced pass, in turns
    first, so both see the same machine state and neither always runs
    the first, cold pass.
    """
    passes, kernel = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        kernel.append(host.kernel_seconds())
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for tracing in order if traced else (False,):
            passes.append(runner.run_pass(traced=tracing))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            kernel.append(host.kernel_seconds())
            return passes, kernel


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest child (MiB).

    ``ru_maxrss`` is in KiB on Linux. Pool workers are children; the
    kernel reports the peak of the largest one that was waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(setups, setup_kernel, passes, pass_kernel) -> tuple[dict, list[str]]:
    """Medians over set-ups and passes, scaled to the reference host,
    plus notes to print."""
    wall = statistics.median(p.wall for p in passes)
    setup = statistics.median(setups)
    values = {
        "scaled_wall_s": wall * host.scale(pass_kernel),
        "setup_s": setup * host.scale(setup_kernel),
        "peak_rss_mb": peak_rss_mib(),
    }
    notes = [
        f"raw wall {wall!r} s, the median over {len(passes)} passes "
        f"(walls {', '.join(f'{p.wall:.3f}' for p in passes)} s); raw "
        f"set-up {setup!r} s, the median of {len(setups)} set-ups",
        f"host kernel {1000 * statistics.median(pass_kernel):.1f} ms over the "
        f"passes, {1000 * statistics.median(setup_kernel):.1f} ms over the "
        f"set-ups (reference {1000 * host.REFERENCE_SECONDS:g} ms)",
    ]
    return values, notes


def operation_latency(passes) -> str:
    """The archive's operation latency over every pass, as a printed note.

    Not a bounded metric: on this benchmark's reference machine a single
    percentile drifted by more than the largest allowed bound between
    runs.
    """
    latencies = [latency for p in passes for latency in p.latencies]
    q, tail = measures.tail_percentile(latencies)
    return (
        f"operation latency over {len(passes)} passes: op_p50_ms = "
        f"{1000 * measures.percentile(latencies, 50)!r}, op_tail_ms = "
        f"{1000 * tail!r} (p{q:g} of {len(latencies)} operations)"
    )


def per_layer(workload, setups, setup_spans, passes, kernel) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.spans]
    untraced = [p for p in passes if not p.spans]
    values = dict.fromkeys((name for name, _unit in PER_LAYER), 0.0)
    for name in values:
        samples = [p.layers[name] for p in traced if name in p.layers]
        if samples:
            values[name] = statistics.median(samples)
    for layer, span_name in (
        ("datagen.generate_s", "datagen.generate"),
        ("datasets.store_s", "datasets.store"),
    ):
        values[layer] = measures.median(
            [span.duration for span in setup_spans if span.name == span_name]
        )
    if workload == ARCHIVE:
        from e2e_bench.archive import latency_layers

        values.update(latency_layers([s for p in traced for s in p.spans]))
    values["cost.sim_seconds_total"] = passes[0].sim_seconds
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    residual = max(p.layers["trace.self_residual_share"] for p in traced)
    values["trace.self_residual_share"] = residual
    values["host.wall_s"] = untraced_wall
    values["host.setup_s"] = statistics.median(setups)
    values["host.kernel_ms"] = 1000.0 * statistics.median(kernel)
    notes = [
        f"traced wall_s {traced_wall:.6f} s, untraced wall_s "
        f"{untraced_wall:.6f} s, tracing overhead {traced_wall - untraced_wall:+.6f} s",
        f"layer self times add up to the traced wall time within "
        f"{residual:.2e} (tolerance {SELF_TIME_TOLERANCE})",
    ]
    return values, notes


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"e2e_bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"e2e_bench: {repro.__file__} is not this checkout's program",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    workdir = ROOT / ".e2e_bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = make_runner(args.workload, args.seed, workdir)
        setup_tracer = Tracer() if traced else None
        try:
            setups, setup_kernel = set_up(runner, setup_tracer)
        except PinMismatch as exc:
            print(f"e2e_bench: inputs differ from the pin: {exc}", file=sys.stderr)
            return 3
        passes, pass_kernel = measure(runner, args.seconds, traced)
        if traced:
            values, notes = per_layer(
                args.workload, setups, setup_tracer.spans, passes,
                setup_kernel + pass_kernel,
            )
            units = dict(PER_LAYER)
        else:
            values, notes = end_to_end(setups, setup_kernel, passes, pass_kernel)
            units = dict(END_TO_END)
            if args.workload == ARCHIVE:
                notes.append(operation_latency(passes))
        description = runner.describe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    statuses = [status for p in passes for status in p.statuses]
    attempted = len(statuses)
    failed = measures.failed_count(statuses)
    problems = [problem for p in passes for problem in p.unexpected]
    if len({p.fingerprint for p in passes}) != 1:
        problems.append("cell status or simulated seconds differ between passes")
    if traced and values["trace.self_residual_share"] > SELF_TIME_TOLERANCE:
        problems.append("layer self times do not add up to the traced wall time")
    print(f"workload {args.workload}, seed {args.seed}: {description}")
    print(
        f"failed_share = {failed}/{attempted} = "
        f"{measures.failed_share(failed, attempted):.4f}"
    )
    if args.workload in SUITES and SUITES[args.workload].known_defects:
        defects = sorted(SUITES[args.workload].known_defects)
        print(
            "known defects (counted as failed): "
            + ", ".join("/".join(cell) for cell in defects)
        )
    for note in notes:
        print(note)
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
