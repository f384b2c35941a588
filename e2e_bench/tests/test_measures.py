"""The tail-percentile rule, failure accounting and host scaling."""

import pytest

from e2e_bench import host
from e2e_bench.measures import (
    failed_count,
    failed_share,
    percentile,
    tail_percentile,
)
from e2e_bench.suite import SuiteRunner
from e2e_bench.workloads import SUITES
from repro.core.benchmark import BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.errors import ValidationFailure
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.datasets import load_dataset
from repro.platforms.registry import create_platform


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99.9) == 100
    assert percentile([3.0], 75) == 3.0


@pytest.mark.parametrize(
    "n, q",
    [(20, 50), (39, 50), (40, 75), (64, 75), (100, 90), (199, 90), (200, 95),
     (1000, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    samples = [float(i) for i in range(n)]
    chosen, value = tail_percentile(samples)
    assert chosen == q
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_falls_back_to_median_below_twenty_samples():
    samples = [float(i) for i in range(12)]
    assert tail_percentile(samples) == (50, percentile(samples, 50))


def test_scaling_uses_the_median_kernel_time(monkeypatch):
    monkeypatch.setattr(host, "REFERENCE_SECONDS", 0.2)
    # A host twice as slow as the reference halves every timing; one
    # stray kernel sample does not move the factor.
    assert host.scale([0.4, 0.4, 2.7]) == pytest.approx(0.5)
    assert host.scale([0.2]) == 1.0
    assert host.kernel_seconds() > 0


def test_failed_share_counts_every_non_success():
    statuses = ["success", "failed", "invalid", "success"]
    assert failed_count(statuses) == 2
    assert failed_share(2, 4) == 0.5
    with pytest.raises(ValueError):
        failed_share(0, 0)


class _BrokenValidator(OutputValidator):
    def validate(self, graph, algorithm, params, output):
        raise ValidationFailure("planted")


class _Exploding:
    """A driver whose algorithm runs raise a harness error."""

    def __init__(self, inner):
        self.__dict__["_inner"] = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def run_algorithm(self, *args, **kwargs):
        raise RuntimeError("planted")


def _cells(**core_options):
    graph = load_dataset("graph500-6")
    platform = create_platform("giraph", ClusterSpec.paper_distributed())
    if core_options.pop("explode", False):
        platform = _Exploding(platform)
    core = BenchmarkCore([platform], {"graph500-6": graph}, **core_options)
    return core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS])).results


def test_invalid_error_and_time_limit_cells_all_count_as_failed():
    invalid = _cells(validator=_BrokenValidator())
    error = _cells(validator=OutputValidator(), explode=True)
    limited = _cells(validator=OutputValidator(), time_limit_seconds=1e-12)
    ok = _cells(validator=OutputValidator())
    assert [r.status for r in invalid] == ["invalid"]
    assert error[0].status == "failed"
    assert error[0].failure_reason.startswith("error:")
    assert limited[0].failure_reason == "time-limit"
    statuses = [r.status for r in invalid + error + limited + ok]
    assert failed_count(statuses) == 3
    assert failed_share(failed_count(statuses), len(statuses)) == 0.75


def test_only_known_defect_cells_may_fail(tmp_path):
    runner = SuiteRunner(SUITES["road-frontier"], 0, tmp_path)
    results = _cells(validator=_BrokenValidator())
    outcome = runner._outcome(1.0, results)
    # A giraph BFS failure is not in the baseline, and the cell list
    # differs from the pinned 16 cells.
    assert len(outcome.unexpected) == 2
    assert failed_count(outcome.statuses) == 1
