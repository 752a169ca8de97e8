"""Tests for the failure injectors (pessimistic and host-crash modes)."""

from __future__ import annotations

import random

import pytest

from repro.core import ActivationStrategy, Host, ReplicaId
from repro.dsps import (
    HostCrashPlan,
    InputTrace,
    StreamPlatform,
    TraceSegment,
    inject_host_crash,
    inject_pessimistic_failures,
    pessimistic_victims,
    plan_host_crash,
    two_level_trace,
)
from repro.errors import SimulationError
from repro.placement import balanced_placement

GIGA = 1.0e9


def deployment_for(pipeline_descriptor):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, 2)


class TestPessimisticVictims:
    def test_kills_the_active_replica_of_single_active_pes(
        self, pipeline_descriptor
    ):
        deployment = deployment_for(pipeline_descriptor)
        # pe1 keeps only replica 1 active in High: the survivor must be
        # the inactive one (replica 0), so replica 1 is the victim.
        strategy = ActivationStrategy.all_active(deployment).replace(
            {(ReplicaId("pe1", 0), 1): False}
        )
        victims = pessimistic_victims(strategy)
        assert victims["pe1"] == 1
        # pe2 is fully replicated everywhere: victim defaults to 0.
        assert victims["pe2"] == 0

    def test_nr_strategy_loses_everything(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.single_replica(
            deployment, {"pe1": 0, "pe2": 0}
        )
        victims = pessimistic_victims(strategy)
        # The only active replica is the victim for every PE.
        assert victims == {"pe1": 0, "pe2": 0}

    def test_injection_schedules_crashes(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.single_replica(
            deployment, {"pe1": 0, "pe2": 0}
        )
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(4.0, 10.0, "Low")])},
            initial_active=strategy.active_map(0),
        )
        victims = inject_pessimistic_failures(platform, strategy)
        metrics = platform.run()
        # Every PE's only active replica is dead: no output at all.
        assert metrics.total_output == 0
        assert metrics.tuples_processed == 0
        for pe, victim in victims.items():
            assert not platform.replica(ReplicaId(pe, victim)).alive

    def test_sr_strategy_survives_worst_case(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(4.0, 20.0, "Low")])},
            initial_active=strategy.active_map(0),
        )
        inject_pessimistic_failures(platform, strategy)
        metrics = platform.run()
        # One replica of each PE remains: Low fits on the survivors,
        # so (after the 1 s failover of pe1's primary) tuples flow.
        assert metrics.total_output > 0.8 * metrics.total_input


class TestHostCrash:
    def test_plan_validates(self):
        with pytest.raises(SimulationError):
            HostCrashPlan("h0", crash_time=-1.0)
        with pytest.raises(SimulationError):
            HostCrashPlan("h0", crash_time=1.0, downtime=0.0)

    def test_plan_lands_in_high_window(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        trace = two_level_trace(4.0, 8.0, duration=120.0)
        platform = StreamPlatform(deployment, {"src": trace})
        rng = random.Random(3)
        windows = trace.segment_windows("High")
        for _ in range(10):
            plan = plan_host_crash(platform, windows, rng)
            start, end = windows[0]
            assert start <= plan.crash_time < end
            assert plan.host in deployment.host_names

    def test_plan_requires_windows(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(4.0, 10.0, "Low")])},
        )
        with pytest.raises(SimulationError, match="no High windows"):
            plan_host_crash(platform, [], random.Random(0))

    def test_crash_and_recovery_execute(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        trace = InputTrace([TraceSegment(4.0, 60.0, "Low")])
        platform = StreamPlatform(deployment, {"src": trace})
        plan = HostCrashPlan("h0", crash_time=20.0, downtime=16.0)
        inject_host_crash(platform, plan)
        metrics = platform.run()
        events = platform.telemetry.events
        assert events.count("host.crash") == 1
        assert events.count("host.recover") == 1
        # Replication hides the crash almost completely.
        assert metrics.total_output > 0.85 * metrics.total_input
