"""Summary statistics shared by every workload of the benchmark.

Pure functions over plain numbers, so the reporting rules (the tail
percentile, failure accounting, metric-name grammar) are testable
without running a workload.
"""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

#: Percentiles the tail is chosen from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile only counts as a tail when at least this many samples
#: lie beyond it; with fewer, the reading would rest on a handful of
#: points.
TAIL_MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SUCCESS = "success"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples.

    Exact arithmetic: ``99.9 * 10000 / 100`` in floats exceeds 9990.
    """
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest ladder percentile the sample supports.

    A percentile ``q`` qualifies when at least :data:`TAIL_MIN_BEYOND`
    samples rank above it (``n - ceil(q * n / 100) >= 10``). With fewer
    than 20 samples not even the median qualifies; the median is then
    returned, and the caller prints the sample count beside it.
    """
    n = len(samples)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen, percentile(samples, chosen)


def failed_count(statuses: list[str]) -> int:
    """Operations that did not succeed: ``failed`` (errors, time limits,
    timeouts, out-of-memory) and ``invalid`` (wrong output) alike."""
    return sum(1 for status in statuses if status != SUCCESS)


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def median(values: list[float]) -> float:
    """Median, or 0.0 for a layer that recorded nothing."""
    return statistics.median(values) if values else 0.0
