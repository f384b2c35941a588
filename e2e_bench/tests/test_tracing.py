"""Self-time arithmetic, span shipping from pool workers, observe-only wrappers."""

import pickle

import pytest

from e2e_bench.suite import SuiteRunner, suite_layers
from e2e_bench.tracing import (
    Span,
    Tracer,
    concurrent_overlap,
    self_time_residual,
    self_times,
)
from e2e_bench.workloads import SuiteWorkload
from repro.datasets import load_dataset


def _span(id, parent, start, end, name="x"):
    return Span(id=id, name=name, parent=parent, start=start, end=end)


def test_self_time_is_duration_minus_covered_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 5.0, 9.0),
        _span("a1", "a", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"root": 3.0, "a": 2.0, "b": 4.0, "a1": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert concurrent_overlap(spans) == 0.0
    assert self_time_residual(spans, 10.0) == pytest.approx(0.0)


def test_concurrent_children_are_counted_once_in_the_parent():
    # Two pool lanes: pairs overlap between t=2 and t=6.
    spans = [
        _span("run", None, 0.0, 10.0),
        _span("p1", "run", 1.0, 6.0),
        _span("p2", "run", 2.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs["run"] == pytest.approx(2.0)  # [0,1) and [9,10)
    assert concurrent_overlap(spans) == pytest.approx(4.0)
    assert sum(selfs.values()) - concurrent_overlap(spans) == pytest.approx(10.0)
    assert self_time_residual(spans, 10.0) == pytest.approx(0.0)


def test_escaped_and_orphaned_spans_show_as_residual():
    escaped = [_span("root", None, 0.0, 10.0), _span("c", "root", 8.0, 12.0)]
    assert self_time_residual(escaped, 10.0) == pytest.approx(0.2)
    orphan = [_span("root", None, 0.0, 10.0), _span("c", "gone", 2.0, 3.0)]
    assert self_time_residual(orphan, 10.0) == pytest.approx(0.1)


def test_tracer_copies_spool_spans_under_the_open_span(tmp_path):
    tracer = Tracer(spool_dir=str(tmp_path))
    with tracer.span("core.run") as run_span:
        remote = pickle.loads(pickle.dumps(tracer))
    with remote.span("core.pair"):
        pass
    remote.flush()
    assert remote.spans == []
    tracer.collect_spool()
    names = {span.name: span for span in tracer.spans}
    assert names["core.pair"].parent == run_span.id
    assert list(tmp_path.iterdir()) == []


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


@pytest.mark.parametrize("parallel", [1, 2])
def test_tracing_only_observes(tmp_path, parallel):
    graph = load_dataset("graph500-6", seed=500)
    workload = SuiteWorkload(
        name="tiny",
        dataset="graph500-6",
        seed_base=500,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        platforms=("giraph", "mapreduce"),
        algorithms=("BFS", "PR"),
        parallel=parallel,
    )
    runner = SuiteRunner(workload, 0, tmp_path)
    runner.setup(None)
    plain = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert plain.unexpected == [] and traced.unexpected == []
    assert plain.fingerprint == traced.fingerprint
    assert plain.sim_seconds == traced.sim_seconds
    layers = traced.layers
    assert layers["trace.self_residual_share"] < 0.01
    assert layers["validation.calls"] == 4
    assert layers["validation.distinct_refs"] == 2
    assert layers["platforms.giraph.rounds"] > 0
    assert layers["platforms.neo4j.run_s"] == 0.0
    assert 0.0 < layers["core.pool_busy_share"] <= 1.0
    pairs = [span for span in traced.spans if span.name == "core.pair"]
    assert len(pairs) == 2
    assert suite_layers(traced.spans, parallel, traced.wall) == layers
