"""Tests for the per-tenant autoscaler (repro.elastic.autoscaler)."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.core import Host
from repro.dsps import PlatformConfig, StreamPlatform, two_level_trace
from repro.dsps.operators import OperatorReplica
from repro.elastic import (
    Autoscaler,
    AutoscalerPolicy,
    CoreHourMeter,
    MigrationEngine,
)
from repro.elastic.autoscaler import (
    PEAK_PARALLELISM,
    SCALE_LAG,
    SCALE_LEAD,
    TROUGH_PARALLELISM,
)
from repro.errors import SimulationError
from repro.placement import balanced_placement

GIGA = 1.0e9

PEAK_START = 4.0
PEAK_END = 8.0
DURATION = 14.0


def build(pipeline_descriptor, *, batching=False, hosts=3, resync_delay=0.0):
    pool = [
        Host(f"h{i}", cores=4, cycles_per_core=GIGA) for i in range(hosts)
    ]
    deployment = balanced_placement(
        pipeline_descriptor, pool, replication_factor=2
    )
    trace = two_level_trace(
        4.0,
        8.0,
        duration=DURATION,
        high_fraction=(PEAK_END - PEAK_START) / DURATION,
        high_position=PEAK_START / (DURATION - (PEAK_END - PEAK_START)),
    )
    platform = StreamPlatform(
        deployment,
        {"src": trace},
        config=PlatformConfig(batching=batching, resync_delay=resync_delay),
    )
    return platform, MigrationEngine(platform)


def scaler(platform, engine, policy=None, chost=None):
    return Autoscaler(
        platform,
        engine,
        peak_start=PEAK_START,
        peak_end=PEAK_END,
        horizon=DURATION + 2.0,
        policy=policy,
        consolidation_host=chost,
    )


def event_types(platform):
    return [
        json.loads(line)["type"]
        for line in platform.telemetry.events.to_jsonl().splitlines()
    ]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(SimulationError):
            AutoscalerPolicy(tick=0.0)

    def test_consolidation_needs_a_host(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        with pytest.raises(SimulationError, match="consolidation_host"):
            scaler(
                platform,
                engine,
                policy=AutoscalerPolicy(consolidate=True),
            )

    def test_desired_parallelism_window(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        control = scaler(platform, engine)
        assert control.desired_parallelism(0.0) == TROUGH_PARALLELISM
        assert (
            control.desired_parallelism(PEAK_START - SCALE_LEAD)
            == PEAK_PARALLELISM
        )
        assert (
            control.desired_parallelism(PEAK_END + SCALE_LAG)
            == TROUGH_PARALLELISM
        )


class TestControlLoop:
    def test_scales_up_for_peak_and_down_after(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        control = scaler(platform, engine)
        control.start()
        platform.run()
        assert control.scale_ups > 0
        assert control.scale_downs > 0
        # After the run the fleet is back in trough shape.
        for pe in ("pe1", "pe2"):
            active = sum(
                1 for m in platform.group(pe).members if m.active
            )
            assert active == 1

    def test_consolidation_drains_and_expands(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        pe1_hosts = {
            m.host.name for m in platform.group("pe1").members
        }
        chost = min(
            h.name
            for h in platform.deployment.hosts
            if h.name not in pe1_hosts
        )
        # Park a standby on the consolidation host so there is
        # something for the night shift to remove.
        engine.add_replica("pe1", chost)
        control = scaler(
            platform,
            engine,
            policy=AutoscalerPolicy(consolidate=True),
            chost=chost,
        )
        control.start()
        platform.run()
        assert control.consolidations >= 1
        assert control.expansions >= 1
        types = event_types(platform)
        assert "host.drain" in types
        assert "host.reclaim" in types

    def test_reactive_cover_guard(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        control = scaler(platform, engine)
        control.start()

        def kill_active_cover():
            # In the trough only one replica per PE is active; crash
            # its host so the guard must re-activate a standby.
            for member in platform.group("pe1").members:
                if member.active and member.alive:
                    platform.crash_host(member.host.name)
                    return

        platform.env.schedule_at(1.5, kill_active_cover)
        platform.run()
        assert control.reactivations > 0

    def test_every_action_passes_the_proof(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor, hosts=2)
        control = scaler(platform, engine)
        control.start()
        # Crash one of the two hosts over the scale-down boundary: the
        # calendar wants parallelism 1, the proof must keep refusing
        # while the survivor is the only cover.
        platform.env.schedule_at(8.2, lambda: platform.crash_host("h0"))
        platform.env.schedule_at(11.0, lambda: platform.recover_host("h0"))
        platform.run()
        for pe in ("pe1", "pe2"):
            assert any(
                m.alive and m.active
                for m in platform.group(pe).members
            )

    def test_batched_matches_tuple_granular(self, pipeline_descriptor):
        logs = []
        for batching in (False, True):
            platform, engine = build(
                pipeline_descriptor, batching=batching
            )
            control = scaler(
                platform,
                engine,
                policy=AutoscalerPolicy(rebalance=True),
            )
            control.start()
            platform.run()
            logs.append(platform.telemetry.events.to_jsonl())
        assert logs[0] == logs[1]


class _CheckedAutoscaler(Autoscaler):
    """An autoscaler that holds its own probe to its word: whenever
    ``_idle`` answers True, the reconcile that follows must leave the
    engine epoch, every counter and the event log untouched."""

    vouched = 0
    acted = 0

    def _snapshot(self):
        platform = self._platform
        return (
            platform.control_epoch,
            platform.telemetry.events.emitted,
            platform.fallback.windows,
            self._engine.attempted,
            self._engine.refused,
            self.scale_ups,
            self.scale_downs,
            self.reactivations,
            self.consolidations,
            self.expansions,
            self.moves,
            self.skipped,
            [
                (str(m.replica_id), m.host.name, m.alive, m.active)
                for pe in self._pes
                for m in platform.group(pe).members
            ],
        )

    def _reconcile(self, now):
        idle = self._idle(now)
        before = self._snapshot()
        super()._reconcile(now)
        if idle:
            self.vouched += 1
            assert self._snapshot() == before, now
        else:
            self.acted += 1


class TestIdleProbe:
    @settings(
        max_examples=25,
        deadline=None,
        # The fixture is an immutable descriptor: nothing to reset.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        consolidate=st.booleans(),
        rebalance=st.booleans(),
        tick=st.sampled_from([0.1, 0.25, 0.7]),
        crashes=st.lists(
            st.tuples(
                st.floats(0.0, DURATION),
                st.sampled_from(["h0", "h1", "h2"]),
                st.floats(0.3, 4.0),
            ),
            max_size=3,
        ),
    )
    # Drawn at --hypothesis-seed=12: a coarse tick under back-to-back
    # crashes acts (12) more often than it is vouched (11).
    @example(
        consolidate=False,
        rebalance=False,
        tick=0.7,
        crashes=[(0.0, "h2", 4.0), (4.0, "h2", 3.0)],
    )
    def test_probe_true_implies_the_tick_changes_nothing(
        self, pipeline_descriptor, consolidate, rebalance, tick, crashes
    ):
        platform, engine = build(pipeline_descriptor, batching=True)
        chost = None
        if consolidate:
            pe1_hosts = {m.host.name for m in platform.group("pe1").members}
            chost = min(
                h.name
                for h in platform.deployment.hosts
                if h.name not in pe1_hosts
            )
            engine.add_replica("pe1", chost)
        control = _CheckedAutoscaler(
            platform,
            engine,
            peak_start=PEAK_START,
            peak_end=PEAK_END,
            horizon=DURATION + 2.0,
            policy=AutoscalerPolicy(
                tick=tick, consolidate=consolidate, rebalance=rebalance
            ),
            consolidation_host=chost,
        )
        control.start()
        for at, host, downtime in crashes:
            platform.env.schedule_at(
                at, lambda h=host: platform.crash_host(h)
            )
            platform.env.schedule_at(
                at + downtime, lambda h=host: platform.recover_host(h)
            )
        platform.run()
        # How often each answer was exercised. Without crashes it is a
        # property of the twelve policy cells (the calendar acts at the
        # peak's edges, most ticks find nothing to do); while hosts are
        # down every tick has replicas to reconcile, so there it is a
        # tendency and only reported (`--hypothesis-show-statistics`).
        if crashes:
            event(f"acted at least twice: {control.acted >= 2}")
            event(f"vouched more than acted: {control.vouched > control.acted}")
        else:
            assert control.vouched > control.acted >= 2


def _walked_counts(platform, engine):
    """The core-hour meter's ``(active, reserved)``, walked afresh."""
    pes = platform.deployment.descriptor.graph.pes
    active = sum(
        member.alive and member.active
        for pe in pes
        for member in platform.group(pe).members
    )
    reserved = sum(
        host.cores
        for host in platform.deployment.hosts
        if host.name not in engine.cordoned or platform.residents(host.name)
    )
    return active, reserved


class _WalkCheckedAutoscaler(Autoscaler):
    """An autoscaler that holds both control-epoch memos to a fresh,
    uncached walk at every tick, before its reconcile and after it: its
    own quiet answer and the core-hour meter's ``(active, reserved)``."""

    meter = None
    checks = 0

    def _check(self, now):
        target = self.desired_parallelism(now)
        walked = all(
            self._rescale_due(pe, target) is None for pe in self._pes
        )
        assert self._quiet(target) == walked, now
        assert self.meter.counts() == _walked_counts(
            self._platform, self._engine
        ), now
        self.checks += 1

    def _reconcile(self, now):
        self._check(now)
        super()._reconcile(now)
        self._check(now)


def _run_walk_checked(
    pipeline_descriptor,
    *,
    batching,
    resync_delay,
    consolidate,
    rebalance,
    tick,
    crashes,
):
    platform, engine = build(
        pipeline_descriptor, batching=batching, resync_delay=resync_delay
    )
    chost = None
    if consolidate:
        pe1_hosts = {m.host.name for m in platform.group("pe1").members}
        chost = min(
            h.name
            for h in platform.deployment.hosts
            if h.name not in pe1_hosts
        )
        engine.add_replica("pe1", chost)
    control = _WalkCheckedAutoscaler(
        platform,
        engine,
        peak_start=PEAK_START,
        peak_end=PEAK_END,
        horizon=DURATION + 2.0,
        policy=AutoscalerPolicy(
            tick=tick, consolidate=consolidate, rebalance=rebalance
        ),
        consolidation_host=chost,
    )
    control.meter = CoreHourMeter(platform, DURATION + 2.0, engine=engine)
    control.start()
    control.meter.start()
    for at, host, downtime in crashes:
        platform.env.schedule_at(at, lambda h=host: platform.crash_host(h))
        platform.env.schedule_at(
            at + downtime, lambda h=host: platform.recover_host(h)
        )
    platform.run()
    return control


def _finish_resync_unannounced(self):
    """``OperatorReplica._finish_resync`` without its epoch bump."""
    self._resyncing = False
    if self.processable and self.group is not None:
        self.group.on_member_available(self)


class TestControlEpochMemos:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        batching=st.booleans(),
        # A resync window makes processability lag activation: its end
        # is announced by one bump and nothing else.
        resync_delay=st.sampled_from([0.0, 0.3]),
        consolidate=st.booleans(),
        rebalance=st.booleans(),
        tick=st.sampled_from([0.1, 0.25, 0.7]),
        crashes=st.lists(
            st.tuples(
                st.floats(0.0, DURATION),
                st.sampled_from(["h0", "h1", "h2"]),
                st.floats(0.3, 4.0),
            ),
            max_size=3,
        ),
    )
    def test_memoised_answers_equal_a_fresh_walk(
        self, pipeline_descriptor, **drawn
    ):
        control = _run_walk_checked(pipeline_descriptor, **drawn)
        assert control.checks > 0

    @pytest.mark.parametrize("batching", [False, True])
    def test_a_missing_bump_is_caught(
        self, pipeline_descriptor, monkeypatch, batching
    ):
        """Sabotage: the end of a resync no longer bumps the epoch. A
        trough crash makes the cover guard activate the standby; when
        its resync ends unannounced, the memo still says "not covered"
        and the fresh walk disagrees."""
        monkeypatch.setattr(
            OperatorReplica, "_finish_resync", _finish_resync_unannounced
        )
        with pytest.raises((AssertionError, SimulationError)):
            _run_walk_checked(
                pipeline_descriptor,
                batching=batching,
                resync_delay=0.3,
                consolidate=False,
                rebalance=False,
                tick=0.1,
                crashes=[(12.4, "h0", 0.3)],
            )
