"""Integration tests for the stream platform simulator."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    ActivationStrategy,
    Host,
    ReplicaId,
    ReplicatedDeployment,
)
from repro.dsps import (
    InputTrace,
    PlatformConfig,
    StreamPlatform,
    TraceSegment,
    two_level_trace,
)
from repro.errors import SimulationError
from repro.placement import balanced_placement

GIGA = 1.0e9


def tight_deployment(pipeline_descriptor):
    """Fig. 2a: per-host capacity 1e9 cycles/s; High overloads at 1.6e9."""
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, 2)


def build_platform(descriptor, deployment=None, trace=None, **kwargs):
    deployment = deployment or tight_deployment(descriptor)
    trace = trace or two_level_trace(4.0, 8.0, duration=30.0)
    return StreamPlatform(deployment, {"src": trace}, **kwargs)


class TestConstruction:
    def test_missing_trace_rejected(self, pipeline_descriptor):
        deployment = tight_deployment(pipeline_descriptor)
        with pytest.raises(SimulationError, match="no input trace"):
            StreamPlatform(deployment, {})

    def test_too_many_replicas_per_host_rejected(self, pipeline_descriptor):
        hosts = [Host("h0", cores=1, cycles_per_core=GIGA),
                 Host("h1", cores=1, cycles_per_core=GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, 2
        )
        with pytest.raises(SimulationError, match="pins one"):
            StreamPlatform(
                deployment,
                {"src": two_level_trace(4.0, 8.0, duration=10.0)},
            )

    def test_unknown_replica_query_rejected(self, pipeline_descriptor):
        platform = build_platform(pipeline_descriptor)
        with pytest.raises(SimulationError):
            platform.replica(ReplicaId("ghost", 0))
        with pytest.raises(SimulationError):
            platform.group("ghost")
        with pytest.raises(SimulationError):
            platform.host_scheduler("ghost")

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            PlatformConfig(queue_seconds=0.0)
        with pytest.raises(SimulationError):
            PlatformConfig(failover_delay=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        ["failover_delay", "resync_delay", "queue_seconds", "heartbeat_interval"],
    )
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(SimulationError, match=field):
            PlatformConfig(**{field: value})


class TestSteadyState:
    def test_low_rate_flows_end_to_end(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 20.0, "Low")]),
        )
        metrics = platform.run()
        assert metrics.total_input == 80
        # Selectivity 1 throughout: everything reaches the sink.
        assert metrics.total_output == 80
        assert all(m.dropped == 0 for m in metrics.replicas.values())
        # Both PEs processed every tuple (logical count).
        assert metrics.tuples_processed == 160

    def test_cpu_time_matches_model(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 20.0, "Low")]),
        )
        metrics = platform.run()
        # 80 tuples x 0.1e9 cycles / 0.5e9 c/s-core = 0.2 s per tuple per
        # replica; 2 PEs x 2 replicas: 80 * 0.2 * 4 = 64 CPU seconds.
        assert metrics.total_cpu_time == pytest.approx(64.0, rel=1e-3)

    def test_overload_drops_and_limits_output(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(8.0, 30.0, "High")]),
        )
        metrics = platform.run()
        # Fully replicated High demands 1.6e9 per 1e9-capacity host:
        # the sink sees at most 5/8 of the input.
        assert metrics.total_output < metrics.total_input * 0.7
        assert metrics.logical_dropped > 0

    def test_deactivated_replicas_restore_throughput(
        self, pipeline_descriptor
    ):
        deployment = tight_deployment(pipeline_descriptor)
        # Keep one replica of each PE, spread over the two hosts so no
        # single host carries both survivors (an NR-like state).
        chosen = {
            "pe1": next(
                r.replica
                for r in deployment.replicas_of("pe1")
                if deployment.host_of(r) == "h0"
            ),
            "pe2": next(
                r.replica
                for r in deployment.replicas_of("pe2")
                if deployment.host_of(r) == "h1"
            ),
        }
        strategy = ActivationStrategy.single_replica(
            deployment, chosen, name="manual"
        )
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(8.0, 30.0, "High")])},
            initial_active=strategy.active_map(1),
        )
        metrics = platform.run()
        assert metrics.total_output == metrics.total_input
        assert all(m.dropped == 0 for m in metrics.replicas.values())


class TestFailureEntryPoints:
    def test_crash_host_kills_its_replicas(self, pipeline_descriptor):
        platform = build_platform(pipeline_descriptor)
        deployment = platform.deployment
        host = deployment.host_names[0]
        platform.crash_host(host)
        for replica_id in deployment.replicas_on(host):
            assert not platform.replica(replica_id).alive
        assert platform.telemetry.events.count("host.crash") == 1

    def test_recover_host_restores_replicas(self, pipeline_descriptor):
        platform = build_platform(pipeline_descriptor)
        host = platform.deployment.host_names[0]
        platform.crash_host(host)
        platform.recover_host(host)
        for replica_id in platform.deployment.replicas_on(host):
            assert platform.replica(replica_id).alive

    def test_all_primaries_dead_means_no_output(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 10.0, "Low")]),
        )
        for pe in ("pe1", "pe2"):
            for replica in platform.group(pe).members:
                replica.crash()
        metrics = platform.run()
        assert metrics.total_output == 0
        assert metrics.tuples_processed == 0

    def test_crash_and_recovery_mid_run(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 40.0, "Low")]),
        )
        # Crash replica 0 of pe1 at t=10, recover at t=20; the secondary
        # takes over after the 1 s failover delay, so most tuples flow.
        target = ReplicaId("pe1", 0)
        platform.env.schedule_at(
            10.0, lambda: platform.crash_replica(target)
        )
        platform.env.schedule_at(
            20.0, lambda: platform.recover_replica(target)
        )
        metrics = platform.run()
        lost = metrics.total_input - metrics.total_output
        # Roughly the 1 s failover window at 4 t/s, plus queue losses.
        assert 0 < lost <= 12
