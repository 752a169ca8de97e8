"""Tests for the HAController."""

from __future__ import annotations

import pytest

from repro.core import ActivationStrategy, Host, ReplicaId
from repro.core.optimizer import OptimizationProblem, ft_search
from repro.dsps import InputTrace, StreamPlatform, TraceSegment
from repro.errors import SimulationError
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
    assert result.strategy is not None
    platform = StreamPlatform(
        deployment,
        {"src": InputTrace([TraceSegment(4.0, 60.0, "Low")])},
        initial_active=result.strategy.active_map(0),
    )
    return platform, result.strategy


class TestHAController:
    def test_rejects_foreign_strategy(self, setup, diamond_deployment):
        platform, _ = setup
        foreign = ActivationStrategy.all_active(diamond_deployment)
        with pytest.raises(SimulationError, match="different deployment"):
            HAController(platform, foreign, initial_config=0)

    def test_rejects_negative_latency(self, setup):
        platform, strategy = setup
        with pytest.raises(SimulationError):
            HAController(
                platform, strategy, initial_config=0, command_latency=-1.0
            )

    def test_no_switch_for_dominated_rates(self, setup):
        platform, strategy = setup
        controller = HAController(platform, strategy, initial_config=0)
        controller.on_rates({"src": 3.5})
        assert controller.current_config == 0
        assert controller.switch_log == []

    def test_switch_to_high_applies_strategy(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, command_latency=0.0
        )
        controller.on_rates({"src": 6.0})  # exceeds Low -> High config
        assert controller.current_config == 1
        platform.env.run(until=0.1)
        for replica_id in platform.deployment.replicas:
            assert platform.replica(replica_id).active == strategy.is_active(
                replica_id, 1
            )

    def test_commands_only_for_changed_replicas(self, setup):
        platform, strategy = setup
        controller = HAController(platform, strategy, initial_config=0)
        controller.on_rates({"src": 6.0})
        expected = sum(
            1
            for replica_id in platform.deployment.replicas
            if strategy.is_active(replica_id, 0)
            != strategy.is_active(replica_id, 1)
        )
        assert controller.commands_sent == expected

    def test_switch_back_restores(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, command_latency=0.0
        )
        controller.on_rates({"src": 6.0})
        controller.on_rates({"src": 3.0})
        platform.env.run(until=0.1)
        assert controller.current_config == 0
        for replica_id in platform.deployment.replicas:
            assert platform.replica(replica_id).active == strategy.is_active(
                replica_id, 0
            )
        assert len(controller.switch_log) == 2

    def test_command_latency_delays_effect(self, setup):
        platform, strategy = setup
        controller = HAController(
            platform, strategy, initial_config=0, command_latency=0.5
        )
        changed = [
            replica_id
            for replica_id in platform.deployment.replicas
            if strategy.is_active(replica_id, 0)
            != strategy.is_active(replica_id, 1)
        ]
        assert changed, "fixture strategy must differ between configs"
        controller.on_rates({"src": 6.0})
        probe = changed[0]
        state_before = platform.replica(probe).active
        platform.env.run(until=0.4)
        assert platform.replica(probe).active == state_before
        platform.env.run(until=0.6)
        assert platform.replica(probe).active == strategy.is_active(probe, 1)

    def test_switches_recorded_in_metrics(self, setup):
        platform, strategy = setup
        controller = HAController(platform, strategy, initial_config=0)
        controller.on_rates({"src": 7.0})
        assert platform.metrics.config_switches
        time, config = platform.metrics.config_switches[0]
        assert config == 1
