"""Failure-path tests: typed failures and the golden failure matrix.

Every simulated limit raises a *typed* exception (never a bare
``Exception``), and a failure matrix renders bit-identically across
consecutive runs — failures are first-class, reproducible results.
"""

import pytest

from repro.core.benchmark import FAILED, BenchmarkCore
from repro.core.cost import ClusterSpec
from repro.core.errors import (
    GraphalyticsError,
    PlatformFailure,
    SimulatedOOM,
)
from repro.core.report import ReportGenerator
from repro.core.workload import Algorithm, BenchmarkRunSpec
from repro.graph.generators import rmat_graph
from repro.platforms.registry import available_platforms, create_platform_fleet
from repro.robustness import FaultPlan, apply_mem_limit
from repro.robustness.errors import SimulatedWorkerCrash


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=8, seed=13)


#: MapReduce streams from disk and shrinks its sort buffer to fit the
#: budget — in the paper it fails by *time* limit, never by memory.
_OOM_PLATFORMS = sorted(set(available_platforms()) - {"mapreduce"})


@pytest.mark.parametrize("platform_name", _OOM_PLATFORMS)
def test_every_platform_raises_typed_oom(platform_name, graph):
    """A starved platform fails with SimulatedOOM, wherever it trips."""
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    apply_mem_limit(platform, 2048.0)
    with pytest.raises(SimulatedOOM) as failure:
        handle = platform.upload_graph("g", graph)
        platform.run_algorithm(handle, Algorithm.BFS)
    assert failure.value.platform == platform_name
    assert failure.value.reason == "out-of-memory"
    # The typed envelope: a platform limit is always a PlatformFailure
    # (and so a GraphalyticsError), catchable without bare excepts.
    assert isinstance(failure.value, PlatformFailure)
    assert isinstance(failure.value, GraphalyticsError)
    assert not failure.value.transient


def test_mapreduce_streams_under_memory_pressure(graph):
    """MapReduce shrinks its sort buffer instead of dying — the
    paper's MapReduce survives every graph and fails only by time."""
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=["mapreduce"]
    )
    apply_mem_limit(platform, 2048.0)
    handle = platform.upload_graph("g", graph)
    run = platform.run_algorithm(handle, Algorithm.BFS)
    assert run.simulated_seconds > 0


def test_oom_is_deterministic_across_runs(graph):
    """The same starved combo dies at the same allocation every time."""
    messages = []
    for _run in range(2):
        (platform,) = create_platform_fleet(
            ClusterSpec.paper_distributed(), names=["giraph"]
        )
        apply_mem_limit(platform, 4096.0)
        with pytest.raises(SimulatedOOM) as failure:
            handle = platform.upload_graph("g", graph)
            platform.run_algorithm(handle, Algorithm.BFS)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]


def test_injected_crash_is_typed(graph):
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=["giraph"]
    )
    core = BenchmarkCore(
        [platform],
        {"g": graph},
        fault_plan=FaultPlan(crash_worker=2, crash_round=1),
    )
    suite = core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))
    (result,) = suite.results
    assert result.status == FAILED
    assert result.failure_reason == "worker-crash"


def test_crash_exception_carries_context():
    with pytest.raises(SimulatedWorkerCrash) as failure:
        raise SimulatedWorkerCrash("giraph", worker=3, round_index=7)
    assert failure.value.worker == 3
    assert failure.value.round_index == 7
    assert "worker 3" in str(failure.value)


def _starved_suite(graph):
    """One benchmark run with a mem-limit that fails two platforms."""
    fleet = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=["giraph", "graphx", "neo4j"]
    )
    for platform in fleet:
        apply_mem_limit(platform, 64 * 2 ** 10)
    core = BenchmarkCore(fleet, {"rmat-8": graph})
    return core.run(BenchmarkRunSpec(algorithms=[Algorithm.BFS]))


def _render(suite):
    generator = ReportGenerator(configuration={"mem-limit": "64K"})
    return generator.render(suite), generator.render_html(suite)


@pytest.fixture(scope="module")
def starved_graph():
    return rmat_graph(8, edge_factor=8, seed=21)


def test_failure_matrix_renders_deterministically(starved_graph):
    """Golden property: two consecutive runs render byte-identically,
    failure cells included — text and HTML."""
    first_text, first_html = _render(_starved_suite(starved_graph))
    second_text, second_html = _render(_starved_suite(starved_graph))
    assert first_text == second_text
    assert first_html == second_html
    # The matrix actually contains failure cells, not just successes.
    assert "OOM" in first_text
    assert 'class="failure"' in first_html


def test_failure_cells_keep_reasons(starved_graph):
    suite = _starved_suite(starved_graph)
    failed = {r.platform: r for r in suite.results if not r.succeeded}
    assert set(failed) == {"graphx", "neo4j"}
    assert all("out-of-memory" in r.failure_reason for r in failed.values())
    # Giraph's lean adjacency still fits: the suite kept running after
    # the failures and recorded its success.
    success = suite.lookup("giraph", "rmat-8", Algorithm.BFS)
    assert success is not None and success.succeeded
