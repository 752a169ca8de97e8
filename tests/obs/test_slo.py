"""The streaming SLO engine: windows, burn alerts, budgets, trust."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ReproError
from repro.obs import (
    AvailabilityTracker,
    CoverageAvailability,
    EventLog,
    SloConfig,
    SloEngine,
)
from repro.obs.validate import validate_lines


class NullAvailability(AvailabilityTracker):
    """Never bad: an engine under test without a deployment model."""

    def _apply(self, time, type_, fields):
        pass


class _ScriptedAvailability(AvailabilityTracker):
    """Bad while between a host.crash and the matching host.recover."""

    def __init__(self):
        super().__init__()
        self._down = False

    def _apply(self, time, type_, fields):
        if type_ == "host.crash":
            self._down = True
        elif type_ == "host.recover":
            self._down = False

    def _evaluate(self):
        return self._down

    def degraded(self):
        return self._down


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _engine(config=None, availability=None, **kwargs):
    clock = _Clock()
    events = EventLog(clock)
    engine = SloEngine(
        events,
        availability if availability is not None else NullAvailability(),
        config,
        tenant="t0",
        **kwargs,
    )
    events.add_tap(engine.on_event)
    return clock, events, engine


def _emit_at(clock, events, time, type_, **fields):
    clock.now = time
    events.emit(type_, **fields)


class TestSloConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0.5},
            {"window": 2.5},
            {"availability_target": 1.0},
            {"availability_target": 0.0},
            {"burn_threshold": 0.0},
            {"fast_windows": 0},
            {"fast_windows": 3, "slow_windows": 2},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ReproError):
            SloConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": math.nan},
            {"window": math.inf},
            {"burn_threshold": math.nan},
            {"burn_threshold": math.inf},
        ],
        ids=["window-nan", "window-inf", "burn-nan", "burn-inf"],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ReproError):
            SloConfig(**kwargs)


class TestWindows:
    def test_lazy_close_emits_slo_window_with_true_bounds(self):
        clock, events, engine = _engine(SloConfig(window=5.0))
        _emit_at(clock, events, 1.0, "tuple.drop", replica="pe0#0")
        # Jumping past two whole windows closes both at once; the
        # slo.window events are stamped "now" but carry true bounds.
        _emit_at(clock, events, 12.0, "tuple.drop", replica="pe0#0")
        windows = list(events.of_type("slo.window"))
        assert [(w.fields["start"], w.fields["end"]) for w in windows] == [
            (0.0, 5.0), (5.0, 10.0),
        ]
        assert all(w.time == 12.0 for w in windows)
        assert windows[0].fields["drops"] == 1
        assert windows[1].fields["drops"] == 0

    def test_finalize_closes_partial_window_and_emits_budget(self):
        clock, events, engine = _engine(SloConfig(window=5.0))
        _emit_at(clock, events, 1.0, "tuple.drop", replica="pe0#0")
        engine.finalize(12.0)
        windows = list(events.of_type("slo.window"))
        assert [(w.fields["start"], w.fields["end"]) for w in windows] == [
            (0.0, 5.0), (5.0, 10.0), (10.0, 12.0),
        ]
        budget = list(events.of_type("slo.budget"))
        assert len(budget) == 1
        assert budget[0].fields["windows"] == 3
        assert budget[0].fields["verdict"] == "met"
        summary = engine.summary()
        assert summary["n_windows"] == 3
        assert summary["drops"] == 1
        assert summary["availability"] == 1.0

    def test_finalize_twice_and_summary_before_finalize_raise(self):
        _, _, engine = _engine()
        with pytest.raises(ReproError, match="finalize"):
            engine.summary()
        engine.finalize(10.0)
        with pytest.raises(ReproError, match="twice"):
            engine.finalize(10.0)

    def test_slo_events_are_schema_valid(self):
        clock, events, engine = _engine(
            SloConfig(window=5.0, availability_target=0.9),
            availability=_ScriptedAvailability(),
        )
        _emit_at(clock, events, 1.0, "host.crash", host="h0")
        _emit_at(clock, events, 8.0, "host.recover", host="h0")
        engine.finalize(10.0)
        assert validate_lines(events.to_jsonl().splitlines()) == []

    def test_latency_cursor_splits_samples_at_window_bound(self):
        times = [0.5, 4.999, 5.0, 9.0]
        latencies = [0.010, 0.020, 0.030, 0.040]
        clock, events, engine = _engine(
            SloConfig(window=5.0), latency=[("sink", (times, latencies))]
        )
        engine.finalize(10.0)
        windows = list(events.of_type("slo.window"))
        # Strict t < end: the boundary sample at t=5.0 lands in window 1.
        assert windows[0].fields["lat_count"] == 2
        assert windows[1].fields["lat_count"] == 2
        assert engine.summary()["latency"]["count"] == 4

    def test_throughput_sums_series_buckets_inside_window(self):
        clock, events, engine = _engine(
            SloConfig(window=5.0),
            output_buckets=[{0: 3, 4: 2, 5: 7}],
            input_buckets=[{1: 10}],
        )
        engine.finalize(10.0)
        windows = list(events.of_type("slo.window"))
        assert windows[0].fields["output"] == 5
        assert windows[0].fields["input"] == 10
        assert windows[1].fields["output"] == 7
        summary = engine.summary()
        assert summary["output"] == 12
        assert summary["input"] == 10


class TestPhaseAttribution:
    def test_failover_beats_failure_beats_replan(self):
        clock, events, engine = _engine(
            availability=_ScriptedAvailability(),
            config=SloConfig(window=5.0, availability_target=0.5),
        )
        # Window 0: an open failover span plus a crash -> "failover".
        _emit_at(clock, events, 1.0, "host.crash", host="h0")
        _emit_at(
            clock, events, 1.0, "span.start", name="failover", pe="pe0"
        )
        # The span ends inside window 1, so that window still counts
        # as "failover" (beating the degraded-host "failure" reading).
        _emit_at(
            clock, events, 6.0, "span.end",
            name="failover", pe="pe0", duration=5.0,
        )
        # Recovery lands mid-window-2; by close time the tracker is
        # healthy again and nothing else happened -> "steady".
        _emit_at(clock, events, 12.0, "host.recover", host="h0")
        # Window 3 has a replan marker only.
        _emit_at(clock, events, 16.0, "fleet.replan", tenant="t0")
        engine.finalize(25.0)
        phases = [
            w.fields["phase"] for w in events.of_type("slo.window")
        ]
        assert phases == ["failover", "failover", "steady", "replan", "steady"]
        assert engine.summary()["failover"]["count"] == 1
        assert engine.summary()["failover"]["max"] == 5.0

    def test_open_span_carries_failover_phase_across_windows(self):
        clock, events, engine = _engine(SloConfig(window=5.0))
        _emit_at(
            clock, events, 2.0, "span.start", name="failover", pe="pe0"
        )
        _emit_at(
            clock, events, 13.0, "span.end",
            name="failover", pe="pe0", duration=11.0,
        )
        engine.finalize(20.0)
        phases = [
            w.fields["phase"] for w in events.of_type("slo.window")
        ]
        # Windows 0-2 all overlap the span: started in 0, open across
        # 1, ended inside 2.
        assert phases == ["failover", "failover", "failover", "steady"]


class TestBurnAlerts:
    def test_edge_triggered_firing_and_resolve(self):
        clock, events, engine = _engine(
            availability=_ScriptedAvailability(),
            config=SloConfig(
                window=5.0,
                availability_target=0.9,
                burn_threshold=1.0,
                fast_windows=1,
                slow_windows=3,
            ),
        )
        # Whole first window bad: burn = 1.0 / 0.1 = 10x.
        _emit_at(clock, events, 0.0, "host.crash", host="h0")
        _emit_at(clock, events, 5.0, "host.recover", host="h0")
        engine.finalize(20.0)
        alerts = [
            (a.fields["state"], a.fields["window"])
            for a in events.of_type("slo.alert")
        ]
        # Fires at window 0, resolves at window 1 (fast burn drops to 0).
        assert alerts == [("firing", 0), ("resolved", 1)]
        summary = engine.summary()
        assert summary["verdict"] == "breached"
        assert summary["bad_seconds"] == pytest.approx(5.0)

    def test_slow_window_gate_suppresses_brief_blips(self):
        clock, events, engine = _engine(
            availability=_ScriptedAvailability(),
            config=SloConfig(
                window=5.0,
                availability_target=0.9,
                burn_threshold=1.0,
                fast_windows=1,
                slow_windows=4,
            ),
        )
        # Bad for 1s of a 5s window: fast burn = 0.2/0.1 = 2x, but the
        # first window's slow burn over one window is also 2x — so make
        # the blip land in window 2 with two clean windows of history:
        # slow burn = (0 + 0 + 0.2) / 3 / 0.1 = 0.67x < 1 -> no alert.
        _emit_at(clock, events, 11.0, "host.crash", host="h0")
        _emit_at(clock, events, 12.0, "host.recover", host="h0")
        engine.finalize(20.0)
        assert list(events.of_type("slo.alert")) == []
        # 1 bad second against a 0.1 * 20 = 2s budget: met, no alert.
        assert engine.summary()["verdict"] == "met"

    def test_clean_run_fires_nothing_and_meets_budget(self):
        clock, events, engine = _engine(
            availability=_ScriptedAvailability(),
            config=SloConfig(window=5.0, availability_target=0.999),
        )
        _emit_at(clock, events, 3.0, "tuple.drop", replica="pe0#0")
        engine.finalize(30.0)
        assert list(events.of_type("slo.alert")) == []
        summary = engine.summary()
        assert summary["verdict"] == "met"
        assert summary["burned"] == 0.0


class TestTrust:
    def test_evicted_log_yields_untrusted_verdict(self):
        clock = _Clock()
        events = EventLog(clock, maxlen=2)
        engine = SloEngine(events, NullAvailability(), tenant="t0")
        events.add_tap(engine.on_event)
        for i in range(8):
            _emit_at(clock, events, float(i), "tuple.drop", replica="r")
        engine.finalize(10.0)
        summary = engine.summary()
        assert summary["trusted"] is False
        assert summary["verdict"] == "untrusted"
        # The tap saw every drop even though the ring kept only two.
        assert summary["drops"] == 8

    def test_own_emissions_are_ignored(self):
        clock, events, engine = _engine(SloConfig(window=5.0))
        _emit_at(clock, events, 7.0, "tuple.drop", replica="r")
        engine.finalize(10.0)
        # slo.window / slo.budget events did not loop back into rollups.
        assert engine.summary()["n_windows"] == 2


class TestCoverageAvailability:
    def test_single_crash_keeps_coverage(self, pipeline_deployment):
        tracker = CoverageAvailability(pipeline_deployment)
        tracker.on_event(1.0, "replica.crash", {"replica": "pe1#0"})
        assert tracker.take(10.0) == 0.0
        assert tracker.degraded()

    def test_losing_both_replicas_accrues_bad_time(self, pipeline_deployment):
        tracker = CoverageAvailability(pipeline_deployment)
        tracker.on_event(2.0, "replica.crash", {"replica": "pe1#0"})
        tracker.on_event(4.0, "replica.crash", {"replica": "pe1#1"})
        tracker.on_event(7.0, "replica.recover", {"replica": "pe1#0"})
        assert tracker.take(10.0) == pytest.approx(3.0)

    def test_deactivation_counts_against_coverage(self, pipeline_deployment):
        tracker = CoverageAvailability(pipeline_deployment)
        tracker.on_event(1.0, "replica.deactivate", {"replica": "pe2#0"})
        tracker.on_event(2.0, "replica.crash", {"replica": "pe2#1"})
        assert tracker.take(5.0) == pytest.approx(3.0)

    def test_fractional_target_tolerates_one_uncovered_pe(
        self, pipeline_deployment
    ):
        tracker = CoverageAvailability(pipeline_deployment, ic_target=0.5)
        tracker.on_event(1.0, "replica.crash", {"replica": "pe1#0"})
        tracker.on_event(2.0, "replica.crash", {"replica": "pe1#1"})
        assert tracker.take(8.0) == 0.0


class TestDataplaneSlo:
    """The SLO engine wired into the fleet dataplane (jobs-determinism)."""

    @pytest.fixture(scope="class")
    def params(self):
        from repro.fleet.dataplane import DataplaneParams

        return DataplaneParams(
            tenants=6, duration=15.0, chaos_every=3, keep_events=True
        )

    def test_digests_identical_across_worker_counts(self, params):
        from repro.driver import run_tenants as run_fleet_dataplane

        summary_1, digests_1 = run_fleet_dataplane(params, jobs=1)
        summary_2, digests_2 = run_fleet_dataplane(params, jobs=2)
        assert json.dumps(digests_1, sort_keys=True) == json.dumps(
            digests_2, sort_keys=True
        )
        assert summary_1["fleet_sha256"] == summary_2["fleet_sha256"]

    def test_slo_off_is_clean_and_moves_no_tuple(self, params):
        """The taps only observe: with the engine detached the fleet is
        still violation-free and counts the same tuples."""
        import dataclasses

        from repro.driver import run_tenants as run_fleet_dataplane

        on, _ = run_fleet_dataplane(params, jobs=1)
        off, _ = run_fleet_dataplane(
            dataclasses.replace(params, slo=False), jobs=1
        )
        assert on["ok"] and off["ok"]
        assert on["totals"]["processed"] > 0
        for key in ("input", "output", "processed", "dropped", "lost"):
            assert on["totals"][key] == off["totals"][key]

    def test_digest_carries_slo_and_trust(self, params):
        from repro.fleet.dataplane import run_tenant, TenantTask

        digest = run_tenant(TenantTask(params, 0))
        assert digest["log_complete"] is True
        slo = digest["slo"]
        # 15s run + 2s drain horizon: three full windows and a partial.
        assert slo["n_windows"] == 4
        assert slo["windows"][0]["end"] == 5.0
        # keep_events streams must validate with slo.* included.
        assert validate_lines(digest["jsonl"].splitlines()) == []
