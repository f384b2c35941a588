"""Typed failure envelope: the exceptions injected faults raise.

"SoK: The Faults in our Graph Benchmarks" (Mehrotra et al. 2024)
identifies unreported failure behaviour as the leading source of
irreproducible graph-benchmark claims, and the LDBC Graphalytics
specification makes timeout/failure outcomes part of the official
result format. This module gives every simulated failure a *type*:
drivers never raise bare ``Exception``, so the Benchmark Core can
distinguish deterministic platform limits (:class:`SimulatedOOM`,
re-exported from :mod:`repro.core.errors`) from injected faults, and
retry only the transient ones. The runtime budget is the Benchmark
Core's ``time_limit_seconds``, checked after each run.
"""

from __future__ import annotations

from repro.core.errors import PlatformFailure, SimulatedOOM

__all__ = [
    "SimulatedOOM",
    "SimulatedFault",
    "SimulatedWorkerCrash",
    "SimulatedMessageLoss",
]


class SimulatedFault(PlatformFailure):
    """Base class of all injected faults.

    Parameters
    ----------
    platform:
        Name of the platform the fault was injected into.
    reason:
        Failure category for the report (e.g. ``worker-crash``).
    detail:
        Human-readable explanation.
    transient:
        Whether a retry may succeed — faults configured with a bounded
        number of faulty attempts are transient; the Benchmark Core
        retries those (with backoff) and records permanent ones as
        ``FAILED`` cells immediately.
    """

    def __init__(
        self, platform: str, reason: str, detail: str = "", transient: bool = False
    ):
        super().__init__(platform, reason, detail)
        self.transient = transient


class SimulatedWorkerCrash(SimulatedFault):
    """A worker process died at a configured synchronization round."""

    def __init__(
        self, platform: str, worker: int, round_index: int, transient: bool = False
    ):
        self.worker = worker
        self.round_index = round_index
        super().__init__(
            platform,
            "worker-crash",
            f"worker {worker} crashed at round {round_index}",
            transient=transient,
        )


class SimulatedMessageLoss(SimulatedFault):
    """A message channel between two workers dropped traffic.

    The engines detect the loss (as a real BSP runtime would, through
    acknowledgement timeouts) instead of silently computing with an
    incomplete inbox — a lost message therefore fails the run rather
    than corrupting its output.
    """

    def __init__(
        self, platform: str, src_worker: int, dst_worker: int,
        round_index: int, transient: bool = False,
    ):
        self.src_worker = src_worker
        self.dst_worker = dst_worker
        self.round_index = round_index
        super().__init__(
            platform,
            "message-loss",
            f"channel {src_worker}->{dst_worker} dropped traffic at "
            f"round {round_index}",
            transient=transient,
        )
