"""Exception hierarchy of the benchmark harness."""

from __future__ import annotations

__all__ = [
    "GraphalyticsError",
    "PlatformFailure",
    "SimulatedOOM",
    "SuiteWorkerError",
    "ValidationFailure",
    "ConfigurationError",
]


class GraphalyticsError(Exception):
    """Base class for all benchmark errors."""


class PlatformFailure(GraphalyticsError):
    """A platform failed to process a workload.

    Figure 4 of the paper reports such failures as missing values
    ("Missing values indicate failures"); the Benchmark Core catches
    this exception and records the failure rather than aborting the
    whole benchmark.

    Parameters
    ----------
    platform:
        Name of the failing platform.
    reason:
        Failure category, e.g. ``out-of-memory`` or ``timeout``.
    detail:
        Human-readable explanation for the report.
    """

    #: Whether a retry may succeed (set by injected transient faults);
    #: the Benchmark Core only retries transient failures.
    transient: bool = False

    def __init__(self, platform: str, reason: str, detail: str = ""):
        self.platform = platform
        self.reason = reason
        self.detail = detail
        message = f"{platform}: {reason}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class SimulatedOOM(PlatformFailure):
    """A platform exceeded its (simulated) per-worker memory budget.

    The typed form of the paper's out-of-memory failure cells
    (Figure 4: Giraph/GraphX dying on the large Graph500 scales,
    Neo4j's single-machine memory wall). The cost model is
    deterministic, so a given (platform, graph, ``--mem-limit``)
    combination raises this at the same superstep — with the same
    detail string — on every run.
    """

    def __init__(self, platform: str, detail: str = ""):
        super().__init__(platform, "out-of-memory", detail)


class SuiteWorkerError(GraphalyticsError):
    """An unexpected (non-platform) error while running one combo.

    Raised by the suite runner when harness code — not the simulated
    platform — fails, so the (platform, graph) combination that broke
    is never lost, even when the error crossed a process-pool boundary
    where the original traceback context would otherwise vanish.
    """

    def __init__(self, platform: str, graph_name: str, detail: str):
        self.platform = platform
        self.graph_name = graph_name
        self.detail = detail
        super().__init__(f"{platform}/{graph_name}: {detail}")

    def __reduce__(self):
        # Exceptions with multi-argument constructors need an explicit
        # recipe to survive the process-pool pickle round trip.
        return (SuiteWorkerError, (self.platform, self.graph_name, self.detail))


class ValidationFailure(GraphalyticsError):
    """A platform produced output that disagrees with the reference."""


class ConfigurationError(GraphalyticsError):
    """Invalid benchmark, graph, or platform configuration."""
