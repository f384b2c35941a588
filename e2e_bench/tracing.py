"""Spans recorded around calls into the harness's public API.

The benchmark never edits the program to trace it. It wraps the
objects it hands to :class:`repro.core.benchmark.BenchmarkCore` (each
platform driver and the output validator) in observe-only proxies and
brackets its own calls (dataset generation, the dataset cache, the
results database) with spans. Spans live in memory; a pool worker,
whose memory dies with it, appends its spans to a spool file at the
end of each (platform, graph) pair, and the parent reads them back.

Span timestamps come from ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans from pool workers line up with
the parent's.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call: ``[start, end)`` on the monotonic clock."""

    id: str
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    ``spool_dir`` is where copies of this tracer that were pickled
    into pool workers write their spans; the copy's implicit parent is
    the span that was open when it was pickled.
    """

    def __init__(
        self,
        spool_dir: str | None = None,
        root_parent: str | None = None,
        remote: bool = False,
    ):
        self.spans: list[Span] = []
        self._stack: list[str | None] = [root_parent]
        self._spool_dir = spool_dir
        self._remote = remote
        # Unique per tracer copy: two tasks unpickled in the same
        # worker must not mint colliding span ids.
        self._prefix = f"{os.getpid()}.{uuid.uuid4().hex[:8]}-"
        self._count = 0

    def __reduce__(self):
        return (Tracer, (self._spool_dir, self._stack[-1], True))

    def begin(self, name: str, **attrs) -> Span:
        self._count += 1
        span = Span(
            id=f"{self._prefix}{self._count}",
            name=name,
            parent=self._stack[-1],
            start=time.perf_counter(),
            attrs=attrs,
        )
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack[-1] != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def flush(self) -> None:
        """In a pool worker, hand the recorded spans to the parent."""
        if not self._remote or not self.spans:
            return
        path = Path(self._spool_dir) / f"{self._prefix}{self._count}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Adopt the spans pool workers spooled, then delete the files."""
        if self._spool_dir is None:
            return
        for path in sorted(Path(self._spool_dir).glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(Span(**json.loads(line)) for line in handle)
            path.unlink()


class TracedPlatform:
    """Observe-only proxy around a :class:`repro.core.platform_api.Platform`.

    Attribute reads and writes pass through to the driver, so the core
    sets ``faults``/``timeout_seconds``/``sinks`` on the real object.
    ``upload_graph`` opens a ``core.pair`` span that ``delete_graph``
    (or a failed upload) closes: the core runs every algorithm of one
    (platform, graph) pair between those two calls.
    """

    def __init__(self, inner, tracer: Tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_pair", None)

    def __reduce__(self):
        return (TracedPlatform, (self._inner, self._tracer))

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def upload_graph(self, name, graph):
        pair = self._tracer.begin(
            "core.pair", platform=self._inner.name, graph=name
        )
        object.__setattr__(self, "_pair", pair)
        try:
            with self._tracer.span(f"platforms.{self._inner.name}.etl"):
                return self._inner.upload_graph(name, graph)
        except BaseException:
            self._end_pair()
            raise

    def run_algorithm(self, handle, algorithm, params=None):
        with self._tracer.span(
            f"platforms.{self._inner.name}.run", algorithm=algorithm.value
        ) as span:
            run = self._inner.run_algorithm(handle, algorithm, params)
            span.attrs["rounds"] = run.profile.num_rounds
            return run

    def delete_graph(self, handle):
        try:
            self._inner.delete_graph(handle)
        finally:
            self._end_pair()

    def _end_pair(self):
        if self._pair is not None:
            self._tracer.end(self._pair)
            object.__setattr__(self, "_pair", None)
            self._tracer.flush()


class TracedValidator:
    """Observe-only proxy around :class:`repro.core.validation.OutputValidator`.

    Each span carries the reference it needed (graph content, algorithm,
    parameters), so the number of distinct references can be counted
    across processes.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._graph_keys: dict[int, tuple[object, str]] = {}

    def __reduce__(self):
        return (TracedValidator, (self._inner, self._tracer))

    def validate(self, graph, algorithm, params, output):
        cached = self._graph_keys.get(id(graph))
        if cached is None or cached[0] is not graph:
            cached = (graph, graph.content_key())
            self._graph_keys[id(graph)] = cached
        ref = f"{cached[1]}/{algorithm.value}/{params!r}"
        with self._tracer.span("validation.validate", ref=ref):
            return self._inner.validate(graph, algorithm, params, output)


# -- self-time arithmetic --------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _children(spans: list[Span]) -> dict[str | None, list[Span]]:
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def _clipped(child: Span, parent: Span) -> tuple[float, float]:
    start = max(child.start, parent.start)
    return start, max(start, min(child.end, parent.end))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span: its duration minus the part of it its children cover.

    Children are clipped to their parent, so a child that escapes its
    parent's interval does not eat into the parent's self time; the
    escaped part shows up in :func:`self_time_residual` instead.
    """
    children = _children(spans)
    return {
        span.id: span.duration
        - _union_length([_clipped(c, span) for c in children.get(span.id, [])])
        for span in spans
    }


def concurrent_overlap(spans: list[Span]) -> float:
    """Seconds counted more than once because sibling spans overlapped.

    Pool workers run pairs side by side, so their self times add up to
    more than the wall time by exactly this amount.
    """
    children = _children(spans)
    overlap = 0.0
    for span in spans:
        kids = [_clipped(c, span) for c in children.get(span.id, [])]
        overlap += sum(end - start for start, end in kids) - _union_length(kids)
    return overlap


def self_time_residual(spans: list[Span], wall: float) -> float:
    """``|sum(self times) - overlap - wall| / wall``.

    Zero when every span nests inside its parent and every span
    descends from one root that covers the measured wall time; time a
    child spends outside its parent, or an orphaned span, shows up
    here.
    """
    total = sum(self_times(spans).values()) - concurrent_overlap(spans)
    return abs(total - wall) / wall
