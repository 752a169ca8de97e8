"""Tests for heartbeat-based failure detection (Sec. 5.1's HAProxy beats)."""

from __future__ import annotations

import math

import pytest

from repro.core import Host, ReplicaId
from repro.dsps import (
    InputTrace,
    PlatformConfig,
    ReplicaGroup,
    StreamPlatform,
    TraceSegment,
)
from repro.errors import SimulationError
from repro.placement import balanced_placement
from repro.sim import Environment

GIGA = 1.0e9


def build_platform(
    pipeline_descriptor,
    trace=None,
    heartbeat_interval=0.5,
    failover_delay=1.0,
):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(pipeline_descriptor, hosts, 2)
    trace = trace or InputTrace([TraceSegment(4.0, 40.0, "Low")])
    return StreamPlatform(
        deployment,
        {"src": trace},
        config=PlatformConfig(
            heartbeat_interval=heartbeat_interval,
            failover_delay=failover_delay,
        ),
    )


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(SimulationError):
            PlatformConfig(heartbeat_interval=0.0)

    def test_interval_cannot_exceed_timeout(self):
        with pytest.raises(SimulationError, match="not exceed"):
            PlatformConfig(heartbeat_interval=2.0, failover_delay=1.0)

    @pytest.mark.parametrize(
        "interval, timeout",
        [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0)],
    )
    def test_group_refuses_non_finite_interval_or_timeout(
        self, interval, timeout
    ):
        group = ReplicaGroup(Environment(), "pe1")
        with pytest.raises(SimulationError, match="finite and > 0"):
            group.enable_heartbeats(interval, timeout)


class TestDetection:
    def test_crash_detected_within_timeout_plus_interval(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor, heartbeat_interval=0.25, failover_delay=1.0
        )
        group = platform.group("pe1")
        victim = group.primary
        takeover_times = []

        def watch():
            if group.primary is not None and group.primary is not victim:
                takeover_times.append(platform.env.now)
                return
            platform.env.schedule(0.05, watch)

        platform.env.schedule_at(
            10.0, lambda: platform.crash_replica(victim.replica_id)
        )
        platform.env.schedule(0.05, watch)
        platform.run()
        assert takeover_times, "no failover happened"
        detection_latency = takeover_times[0] - 10.0
        # Emergent: at least the timeout, at most timeout + ~2 intervals.
        assert 1.0 - 0.3 <= detection_latency <= 1.0 + 0.6

    def test_primary_role_persists_until_detection(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor, heartbeat_interval=0.5, failover_delay=1.5
        )
        group = platform.group("pe1")
        victim = group.primary
        platform.env.schedule_at(
            5.0, lambda: platform.crash_replica(victim.replica_id)
        )
        # Just after the crash, before the timeout, the dead replica is
        # still formally the primary (downstream sees silence).
        platform.env.run(until=5.6)
        assert group.primary is victim
        platform.env.run(until=8.0)
        assert group.primary is not victim

    def test_deactivation_handover_is_still_immediate(
        self, pipeline_descriptor
    ):
        platform = build_platform(pipeline_descriptor)
        group = platform.group("pe2")
        first = group.primary
        platform.env.run(until=3.0)
        first.deactivate()
        assert group.primary is not None
        assert group.primary is not first

    def test_end_to_end_loss_bounded_by_detection_window(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor, heartbeat_interval=0.25, failover_delay=1.0
        )
        group = platform.group("pe1")
        victim = group.primary
        platform.env.schedule_at(
            10.0, lambda: platform.crash_replica(victim.replica_id)
        )
        metrics = platform.run()
        lost = metrics.total_input - metrics.total_output
        # ~1.5 s of 4 t/s plus boundary effects.
        assert 0 < lost <= 10


class TestHeartbeatTraffic:
    def test_messages_accumulate_with_fanout(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(1.0, 20.0, "Low")]),
            heartbeat_interval=0.5,
        )
        metrics = platform.run(until=20.0)
        # pe1 beats go to pe2's 2 replicas, pe2's to the sink (fanout 1):
        # per interval, 2 replicas x 2 + 2 x 1 = 6 messages; 40 intervals.
        assert metrics.network.heartbeat_messages == pytest.approx(
            240, abs=20
        )

    def test_crashed_replicas_stop_beating(self, pipeline_descriptor):
        quiet = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(1.0, 20.0, "Low")]),
        )
        for pe in ("pe1", "pe2"):
            for replica in quiet.group(pe).members:
                quiet.env.schedule_at(
                    0.1, lambda r=replica: r.crash()
                )
        metrics = quiet.run(until=20.0)
        # Only the beats before t=0.1 (none, interval 0.5) were sent.
        assert metrics.network.heartbeat_messages == 0

    def test_recovered_replicas_resume_beating(self, pipeline_descriptor):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(1.0, 20.0, "Low")]),
        )
        for pe in ("pe1", "pe2"):
            for replica in platform.group(pe).members:
                platform.env.schedule_at(0.1, lambda r=replica: r.crash())
                platform.env.schedule_at(
                    10.0, lambda r=replica: r.recover()
                )
        metrics = platform.run(until=20.0)
        # Silent for the first half, back to 6 messages/interval for the
        # second: 20 intervals' worth.
        assert metrics.network.heartbeat_messages == pytest.approx(
            120, abs=20
        )

    def test_legacy_mode_sends_no_heartbeats(self, pipeline_descriptor):
        hosts = [
            Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
            Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
        ]
        deployment = balanced_placement(pipeline_descriptor, hosts, 2)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(1.0, 10.0, "Low")])},
        )
        metrics = platform.run()
        assert metrics.network.heartbeat_messages == 0


class TestDetachedMembers:
    """Regression: a detached replica's beat loop ran on, writing its
    ``_last_beat`` entry back and charging heartbeat traffic for the
    rest of the run."""

    @staticmethod
    def run(pipeline_descriptor, attach_at=None, detach_at=None):
        hosts = [
            Host(f"h{i}", cores=2, cycles_per_core=0.5 * GIGA)
            for i in range(3)
        ]
        deployment = balanced_placement(pipeline_descriptor, hosts, 2)
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(1.0, 20.0, "Low")])},
            config=PlatformConfig(heartbeat_interval=0.5),
        )
        group = platform.group("pe1")
        free = next(
            host.name
            for host in hosts
            if all(m.host.name != host.name for m in group.members)
        )
        attached = []
        if attach_at is not None:
            platform.env.schedule_at(
                attach_at,
                lambda: attached.append(
                    platform.attach_replica("pe1", free, active=True)
                ),
            )
        if detach_at is not None:
            platform.env.schedule_at(
                detach_at, lambda: platform.detach_replica(attached[0])
            )
        metrics = platform.run(until=20.0)
        return platform, group, attached, metrics

    def test_a_detached_replica_stops_beating(self, pipeline_descriptor):
        _, _, _, quiet = self.run(pipeline_descriptor)
        _, _, _, kept = self.run(pipeline_descriptor, attach_at=2.0)
        platform, group, attached, metrics = self.run(
            pipeline_descriptor, attach_at=2.0, detach_at=4.0
        )
        # pe1 beats go to pe2's two replicas: 2 messages per beat. The
        # attached replica beats at 2.5, 3.0, ..., 20.0 (36 beats); the
        # detach at 4.0 was scheduled before the 4.0 beat, so it keeps 3.
        base = quiet.network.heartbeat_messages
        assert kept.network.heartbeat_messages == base + 2 * 36
        assert metrics.network.heartbeat_messages == base + 2 * 3
        detached = platform.replica(attached[0])
        assert detached.alive and detached.group is None
        assert detached not in group._last_beat
        assert len(group._last_beat) == 2


class TestRecoveryRegistration:
    """Recovered replicas must be re-registered with the detector.

    Regression: a host crash's recovery used to leave the revived
    replicas with their stale pre-crash ``_last_beat`` stamps,
    so the watchdog deposed them the instant they were re-elected.
    """

    def test_crash_recover_crash_elects_the_recovered_replica(
        self, pipeline_descriptor
    ):
        from repro.chaos import Injection, apply_injection

        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 40.0, "Low")]),
            heartbeat_interval=0.25,
            failover_delay=1.0,
        )
        group = platform.group("pe1")
        first = group.primary
        host = first.host.name
        apply_injection(
            platform,
            Injection.build("rack_crash", at=5.0, hosts=(host,), downtime=3.0),
        )

        # Once the survivor has taken over, kill it too: the only
        # processable member left is the recovered first primary.
        def crash_survivor():
            assert group.primary is not first
            platform.crash_replica(group.primary.replica_id)

        platform.env.schedule_at(20.0, crash_survivor)
        platform.run()
        assert group.primary is first
        assert first.alive

    def test_recovered_primary_is_not_instantly_deposed(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 40.0, "Low")]),
            heartbeat_interval=0.25,
            failover_delay=1.0,
        )
        group = platform.group("pe1")
        first = group.primary
        other = next(m for m in group.members if m is not first)
        platform.env.schedule_at(
            5.0, lambda: platform.crash_replica(first.replica_id)
        )
        platform.env.schedule_at(
            10.0, lambda: platform.recover_replica(first.replica_id)
        )
        platform.env.schedule_at(
            20.0, lambda: platform.crash_replica(other.replica_id)
        )
        depositions = []
        elected_at = []

        def watch():
            # Only the election triggered by the second crash matters:
            # the recovered replica must take over and keep the role.
            if platform.env.now > 20.0:
                if group.primary is first and not elected_at:
                    elected_at.append(platform.env.now)
                if elected_at and group.primary is not first:
                    depositions.append(platform.env.now)
                    return
            platform.env.schedule(0.05, watch)

        platform.env.schedule(0.05, watch)
        platform.run()
        assert group.primary is first
        assert not depositions

    def test_short_flap_of_primary_resolves_its_own_span(
        self, pipeline_descriptor
    ):
        platform = build_platform(
            pipeline_descriptor,
            trace=InputTrace([TraceSegment(4.0, 30.0, "Low")]),
            heartbeat_interval=0.25,
            failover_delay=1.0,
        )
        group = platform.group("pe1")
        victim = group.primary
        # A 0.3 s flap, well under the 1 s timeout: the primary returns
        # before the watchdog ever deposes it.
        platform.env.schedule_at(
            5.0, lambda: platform.crash_replica(victim.replica_id)
        )
        platform.env.schedule_at(
            5.3, lambda: platform.recover_replica(victim.replica_id)
        )
        platform.run()
        assert group.primary is victim
        ends = [
            e
            for e in platform.telemetry.events.of_type("span.end")
            if e.fields.get("name") == "failover"
            and e.fields.get("pe") == "pe1"
        ]
        assert len(ends) == 1
        assert ends[0].fields.get("resumed") is True
        # The span closed at the recovery, not at some later failover.
        assert ends[0].fields["duration"] == pytest.approx(0.3, abs=0.01)
