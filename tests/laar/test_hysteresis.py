"""Unit tests for HAController rate tolerance and down-switch hysteresis."""

from __future__ import annotations

import pytest

from repro.core import Host, OptimizationProblem, ft_search
from repro.dsps import InputTrace, StreamPlatform, TraceSegment
from repro.laar import HAController
from repro.placement import balanced_placement

GIGA = 1.0e9


@pytest.fixture
def setup(pipeline_descriptor):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(pipeline_descriptor, hosts, 2)
    result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
    platform = StreamPlatform(
        deployment,
        {"src": InputTrace([TraceSegment(4.0, 60.0, "Low")])},
        initial_active=result.strategy.active_map(0),
    )
    return platform, result.strategy


class TestRateTolerance:
    def test_noise_within_tolerance_does_not_switch(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, rate_tolerance=0.25
        )
        # Low is 4 t/s; up to 5 t/s is measurement noise, not a change.
        for rate in (4.2, 4.6, 4.9, 5.0):
            controller.on_rates({"src": rate})
            assert controller.current_config == 0
        assert controller.switch_log == []

    def test_rates_beyond_tolerance_switch_up(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, rate_tolerance=0.25
        )
        controller.on_rates({"src": 5.2})
        assert controller.current_config == 1

    def test_zero_tolerance_is_strict(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, rate_tolerance=0.0
        )
        controller.on_rates({"src": 4.05})
        assert controller.current_config == 1


class TestDownConfirmation:
    def test_up_switches_are_never_delayed(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, down_confirmation=3
        )
        controller.on_rates({"src": 7.5})
        assert controller.current_config == 1  # immediate: safety first

    def test_down_switch_needs_consecutive_confirmations(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=1, down_confirmation=3
        )
        controller.on_rates({"src": 3.0})
        assert controller.current_config == 1
        controller.on_rates({"src": 3.2})
        assert controller.current_config == 1
        controller.on_rates({"src": 3.1})
        assert controller.current_config == 0  # third consecutive vote

    def test_interrupted_confirmation_resets(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=1, down_confirmation=2
        )
        controller.on_rates({"src": 3.0})  # vote 1 for Low
        controller.on_rates({"src": 7.0})  # back to High: reset
        assert controller.current_config == 1
        controller.on_rates({"src": 3.0})  # vote 1 again
        assert controller.current_config == 1
        controller.on_rates({"src": 3.0})  # vote 2: switch
        assert controller.current_config == 0

    def test_confirmation_of_one_switches_immediately(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=1, down_confirmation=1
        )
        controller.on_rates({"src": 3.0})
        assert controller.current_config == 0

    def test_invalid_confirmation_rejected(self, setup):
        platform, strategy = setup
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            HAController(
                platform, strategy, initial_config=0, down_confirmation=0
            )
