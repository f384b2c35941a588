"""Host speed, read from a fixed kernel, to scale timings to a reference host.

The benchmark runs on a few cores of a shared host. There the speed of
one core drifts by up to 2x within minutes (this kernel took 0.2 to
0.75 s), and the spread of raw timings between runs is set by the host
rather than by the program: medians of 25-second windows of the same
suite pass differed by 46%, against 10% once scaled as below. The
runner therefore times :func:`kernel_seconds` around its set-ups and
passes and multiplies the program's timings by :func:`scale`, so that a
scaled timing reads as seconds on a host where the kernel takes
:data:`REFERENCE_SECONDS`. The kernel is the benchmark's own code: no
change to the program moves it. Raw timings are printed beside the
scaled ones, and the traced run reports them as ``host.*`` metrics.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the kernel's loop. Core speed there changes within a
#: second, so one sample runs for a few tenths of a second.
ITERATIONS = 3_000_000

#: What the kernel computes, ``sum(i * i % 7 for i in range(ITERATIONS))``;
#: checked so that its work is not skipped.
EXPECTED = 5_999_999

#: Seconds the kernel takes on an idle core of the machine the bounds
#: were set on (Intel Xeon, 2.1 GHz, CPython 3). Any fixed value works:
#: it sets the unit of scaled timings.
REFERENCE_SECONDS = 0.21


def kernel_seconds() -> float:
    """Seconds of one run of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total != EXPECTED:
        raise AssertionError("host kernel computed a wrong sum")
    return elapsed


def scale(kernel_samples: list[float]) -> float:
    """Factor that turns seconds measured beside ``kernel_samples``
    into seconds on the reference host."""
    return REFERENCE_SECONDS / statistics.median(kernel_samples)
