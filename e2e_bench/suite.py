"""Suite workloads: one pass is one ``BenchmarkCore.run`` over a cached graph.

Set-up generates the catalog graph and stores it in a
:class:`~repro.datasets.DatasetCache`; a pass memory-maps it back and
runs the pinned cells with the output validator on. An operation is one
cell; cells are a fixed set of very different jobs, so their latency
percentiles are not reported.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from e2e_bench.measures import SUCCESS
from e2e_bench.tracing import (
    Span,
    TracedPlatform,
    TracedValidator,
    Tracer,
    self_time_residual,
    self_times,
)
from e2e_bench.workloads import ALL_ALGORITHMS, ALL_PLATFORMS, SuiteWorkload
from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.datasets import DatasetCache, dataset_key, load_dataset
from repro.platforms.registry import create_platform_fleet

INVALID = "invalid"


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall: float
    statuses: list[str]
    #: Failures outside the workload's known-defect baseline, and
    #: wrong answers; any entry makes the run incorrect.
    unexpected: list[str]
    #: Tracing-independent outcome digest; equal on every pass.
    fingerprint: tuple
    sim_seconds: float = 0.0
    #: Seconds of each operation, where operation latency is a metric
    #: (the archive's database calls; not suite cells).
    latencies: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def span_or_null(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


class SuiteRunner:
    """Set-up and timed passes of one :class:`SuiteWorkload`."""

    def __init__(self, workload: SuiteWorkload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.key = dataset_key(
            "catalog", {"name": workload.dataset}, workload.dataset_seed(seed)
        )
        self.cache: DatasetCache | None = None
        self.counts: tuple[int, int] | None = None
        self._serial = 0

    def describe(self) -> str:
        vertices, edges = self.counts
        return (
            f"{self.workload.dataset} (dataset seed "
            f"{self.workload.dataset_seed(self.seed)}): {vertices} vertices, "
            f"{edges} edges; {len(self.workload.cells)} cells, "
            f"parallel={self.workload.parallel}"
        )

    def setup(self, tracer: Tracer | None) -> float:
        """Generate the graph and store it in a fresh cache; returns seconds.

        Raises :class:`~e2e_bench.workloads.PinMismatch` when the
        generated graph is not the pinned one.
        """
        start = time.perf_counter()
        with span_or_null(tracer, "datagen.generate"):
            graph = load_dataset(
                self.workload.dataset, seed=self.workload.dataset_seed(self.seed)
            )
        cache = DatasetCache(self.workdir / f"cache-{self._serial}")
        with span_or_null(tracer, "datasets.store"):
            cache.store(self.key, graph)
        elapsed = time.perf_counter() - start
        self.workload.check_counts(self.seed, graph.num_vertices, graph.num_edges)
        if self.cache is not None:
            shutil.rmtree(self.cache.root)
        self.cache = cache
        self.counts = (graph.num_vertices, graph.num_edges)
        self._serial += 1
        return elapsed

    def run_pass(self, traced: bool) -> PassResult:
        workload = self.workload
        self._serial += 1
        scratch = self.workdir / f"pass-{self._serial}"
        spool = scratch / "spool"
        spool.mkdir(parents=True)
        tracer = Tracer(spool_dir=str(spool)) if traced else None
        fleet = create_platform_fleet(
            ClusterSpec.paper_distributed(), names=list(workload.platforms)
        )
        validator = OutputValidator()
        if tracer is not None:
            fleet = [TracedPlatform(platform, tracer) for platform in fleet]
            validator = TracedValidator(validator, tracer)
        spec = BenchmarkRunSpec(
            algorithms=[Algorithm.from_name(name) for name in workload.algorithms]
        )
        gc.collect()
        start = time.perf_counter()
        root = tracer.begin("pass") if tracer is not None else None
        with span_or_null(tracer, "datasets.load"):
            graph = self.cache.load(self.key)
        core = BenchmarkCore(
            fleet,
            {workload.dataset: graph},
            validator=validator,
            graph_store=scratch / "store" if workload.parallel > 1 else None,
        )
        with span_or_null(tracer, "core.run"):
            suite = core.run(spec, parallel=workload.parallel)
        if tracer is not None:
            tracer.end(root)
        wall = time.perf_counter() - start
        result = self._outcome(wall, suite.results)
        if tracer is not None:
            tracer.collect_spool()
            result.spans = tracer.spans
            result.layers = suite_layers(tracer.spans, workload.parallel, wall)
        shutil.rmtree(scratch)
        return result

    def _outcome(self, wall: float, results) -> PassResult:
        workload = self.workload
        unexpected = []
        cells = [(r.platform, r.algorithm.value) for r in results]
        if cells != workload.cells:
            unexpected.append(f"cell list {cells} differs from the pinned one")
        for r in results:
            cell = (r.platform, r.algorithm.value)
            if r.status == SUCCESS:
                continue
            if r.status == INVALID and cell in workload.known_defects:
                continue
            unexpected.append(f"{'/'.join(cell)}: {r.status} ({r.failure_reason})")
        return PassResult(
            wall=wall,
            statuses=[r.status for r in results],
            unexpected=unexpected,
            fingerprint=tuple(
                (
                    r.platform,
                    r.graph_name,
                    r.algorithm.value,
                    r.status,
                    None if r.run is None else r.run.simulated_seconds.hex(),
                )
                for r in results
            ),
            sim_seconds=sum(
                r.run.simulated_seconds for r in results if r.run is not None
            ),
        )


def suite_layers(spans: list[Span], parallel: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced suite pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, []))

    layers = {"datasets.load_s": total("datasets.load")}
    for platform in ALL_PLATFORMS:
        runs = by_name.get(f"platforms.{platform}.run", [])
        run_s = sum(span.duration for span in runs)
        rounds = sum(span.attrs.get("rounds", 0) for span in runs)
        layers[f"platforms.{platform}.etl_s"] = total(f"platforms.{platform}.etl")
        layers[f"platforms.{platform}.run_s"] = run_s
        layers[f"platforms.{platform}.rounds"] = rounds
        layers[f"platforms.{platform}.ms_per_round"] = (
            1000.0 * run_s / rounds if rounds else 0.0
        )
    for algorithm in ALL_ALGORITHMS:
        layers[f"algorithms.{algorithm}.run_s"] = sum(
            span.duration
            for span in spans
            if span.name.endswith(".run")
            and span.attrs.get("algorithm") == algorithm
        )
    validations = by_name.get("validation.validate", [])
    distinct = len({span.attrs["ref"] for span in validations})
    layers["validation.validate_s"] = total("validation.validate")
    layers["validation.calls"] = len(validations)
    layers["validation.distinct_refs"] = distinct
    layers["validation.reuse_ratio"] = (
        distinct / len(validations) if validations else 0.0
    )
    runs = by_name.get("core.run", [])
    pairs = by_name.get("core.pair", [])
    core_span = runs[0] if runs else None
    layers["core.self_s"] = sum(selfs[span.id] for span in runs + pairs)
    layers["core.critical_pair_s"] = max(
        (span.duration for span in pairs), default=0.0
    )
    lanes = min(parallel, len(pairs))
    layers["core.pool_busy_share"] = (
        total("core.pair") / (lanes * core_span.duration)
        if core_span is not None and lanes
        else 0.0
    )
    layers["trace.self_residual_share"] = self_time_residual(spans, wall)
    return layers
