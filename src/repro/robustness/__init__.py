"""Deterministic failure envelope (robustness subsystem).

Graphalytics treats platform *failures* as first-class benchmark
results — the paper's Figures 4/5 report out-of-memory and timeout
cells alongside runtimes. This package makes those outcomes
reproducible:

* :mod:`repro.robustness.errors` — the typed failure envelope
  (``SimulatedOOM``, injected-fault types);
* :mod:`repro.robustness.memory` — the per-platform memory-footprint
  model behind ``graphalytics run --mem-limit``;
* :mod:`repro.robustness.faults` — seeded fault injection (stragglers,
  worker crashes, message-channel loss) behind ``--inject``.
"""

from repro.robustness.errors import (
    SimulatedFault,
    SimulatedMessageLoss,
    SimulatedOOM,
    SimulatedWorkerCrash,
)
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.memory import (
    PLATFORM_MEMORY_MODELS,
    FootprintEstimate,
    MemoryModel,
    apply_mem_limit,
    estimate_footprint,
    parse_bytes,
)

__all__ = [
    "SimulatedOOM",
    "SimulatedFault",
    "SimulatedWorkerCrash",
    "SimulatedMessageLoss",
    "FaultPlan",
    "FaultInjector",
    "MemoryModel",
    "PLATFORM_MEMORY_MODELS",
    "FootprintEstimate",
    "estimate_footprint",
    "parse_bytes",
    "apply_mem_limit",
]
