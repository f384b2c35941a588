"""The typed failure envelope: hierarchy and re-export contracts."""

import pytest

from repro.core import errors as core_errors
from repro.robustness import errors as robustness_errors
from repro.robustness.errors import (
    SimulatedFault,
    SimulatedMessageLoss,
    SimulatedOOM,
    SimulatedWorkerCrash,
)


def test_simulated_limits_are_the_core_types():
    """Robustness re-exports the core types — one class, two imports,
    so `except SimulatedOOM` catches both sides."""
    assert robustness_errors.SimulatedOOM is core_errors.SimulatedOOM


def test_every_simulated_failure_is_a_platform_failure():
    failures = [
        SimulatedOOM("giraph", "budget"),
        SimulatedWorkerCrash("giraph", 0, 1),
        SimulatedMessageLoss("giraph", 0, 1, 2),
    ]
    for failure in failures:
        assert isinstance(failure, core_errors.PlatformFailure)
        assert isinstance(failure, core_errors.GraphalyticsError)
        assert failure.platform == "giraph"
        assert failure.reason


def test_reasons_are_stable_identifiers():
    """Report labels and retry logic key on these exact strings."""
    assert SimulatedOOM("p").reason == "out-of-memory"
    assert SimulatedWorkerCrash("p", 0, 0).reason == "worker-crash"
    assert SimulatedMessageLoss("p", 0, 1, 0).reason == "message-loss"


def test_transient_flag_defaults_and_overrides():
    assert not SimulatedOOM("p").transient
    assert not SimulatedWorkerCrash("p", 0, 0).transient
    assert SimulatedWorkerCrash("p", 0, 0, transient=True).transient
    assert SimulatedFault("p", "synthetic", transient=True).transient


def test_message_loss_names_the_channel():
    failure = SimulatedMessageLoss("giraph", 3, 7, round_index=2)
    assert failure.src_worker == 3
    assert failure.dst_worker == 7
    assert "3->7" in str(failure)


def test_typed_failures_are_catchable_without_bare_except():
    with pytest.raises(core_errors.PlatformFailure):
        raise SimulatedWorkerCrash("giraph", 1, 4)
