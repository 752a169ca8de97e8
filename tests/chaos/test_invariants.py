"""The invariant checker on synthetic event logs (known-good and broken)."""

from __future__ import annotations

import math

import pytest

from repro.chaos import check_campaign, check_conservation
from repro.core import ActivationStrategy
from repro.errors import ReproError
from repro.obs.events import Event, EventLog
from repro.obs.replay import FloorWalker
from repro.obs.slo import FloorAvailability, SloEngine


def _events(*records):
    """Parsed-JSONL-style event dicts with sequential seq numbers."""
    return [
        {"seq": index, **record} for index, record in enumerate(records)
    ]


def _check(deployment, events, *, strategy=None, reference=None, **kw):
    strategy = strategy or ActivationStrategy.all_active(deployment)
    reference = reference or strategy
    kw.setdefault("command_latency", 0.05)
    kw.setdefault("detection_bound", 1.3)
    kw.setdefault("horizon", 30.0)
    return check_campaign(
        events, deployment, strategy, reference, 0, **kw
    )


#: A switch at 10 s whose commands land by 10.05 s (the checks' default
#: command latency); pe1 has no active replica in [10.03, 10.05).
_IN_FLIGHT_GAP = (
    {"t": 10.0, "type": "config.switch", "from": 0, "to": 1, "commands": 2},
    {"t": 10.02, "type": "replica.deactivate", "replica": "pe1#0"},
    {"t": 10.03, "type": "replica.deactivate", "replica": "pe1#1"},
    {"t": 10.05, "type": "replica.activate", "replica": "pe1#0"},
    {"t": 10.05, "type": "replica.activate", "replica": "pe1#1"},
)


class TestICBound:
    def test_clean_log_passes(self, pipeline_deployment):
        result = _check(pipeline_deployment, _events())
        assert result.ok
        assert result.violations == ()
        assert result.stats["seconds"] == {
            "checked": 30.0, "transition": 0.0, "off_model": 0.0
        }

    def test_single_crash_per_pe_is_dominated_and_fine(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            _events(
                {"t": 5.0, "type": "replica.crash", "replica": "pe1#0"},
                {"t": 6.0, "type": "replica.crash", "replica": "pe2#1"},
            ),
        )
        assert result.ok
        # Fully replicated reference: the survivor keeps phi at 1, so
        # the realized rate sits exactly on the pessimistic floor.
        assert result.stats["min_ic_margin"] == pytest.approx(0.0)

    def test_double_crash_is_outside_the_model(self, pipeline_deployment):
        result = _check(
            pipeline_deployment,
            _events(
                {"t": 5.0, "type": "replica.crash", "replica": "pe1#0"},
                {"t": 6.0, "type": "replica.crash", "replica": "pe1#1"},
            ),
        )
        # Both replicas dead beats the pessimistic model's one victim:
        # the bound makes no promise there, so nothing is violated.
        assert result.ok
        assert result.stats["seconds"]["off_model"] == pytest.approx(24.0)

    def test_crash_plus_deactivation_breaks_the_bound(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            _events(
                {"t": 5.0, "type": "replica.crash", "replica": "pe1#0"},
                {
                    "t": 6.0,
                    "type": "replica.deactivate",
                    "replica": "pe1#1",
                },
            ),
        )
        assert not result.ok
        first = result.first()
        assert first.invariant == "ic-bound"
        assert first.time == pytest.approx(6.0)
        assert "pe1" in first.detail

    def test_host_crash_expands_to_its_replicas(self, pipeline_deployment):
        host = pipeline_deployment.host_names[0]
        on_host = pipeline_deployment.replicas_on(host)
        result = _check(
            pipeline_deployment,
            _events(
                {"t": 4.0, "type": "host.crash", "host": host},
                {"t": 9.0, "type": "host.recover", "host": host},
            ),
        )
        # Balanced placement puts one replica of each PE per host, so a
        # single host crash is exactly the pessimistic scenario.
        assert {r.pe for r in on_host} == {"pe1", "pe2"}
        assert result.ok

    def test_accepts_event_objects(self, pipeline_deployment):
        events = [
            Event(0, 5.0, "replica.crash", {"replica": "pe1#0"}),
            Event(1, 6.0, "replica.deactivate", {"replica": "pe1#1"}),
        ]
        result = _check(pipeline_deployment, events)
        assert not result.ok
        assert result.first().invariant == "ic-bound"

    def test_transition_window_is_excluded(self, pipeline_deployment):
        # During the command-latency gap after a switch decision, even a
        # PE with zero active replicas must not trip the bound — the
        # platform is legitimately mid-reconfiguration.
        result = _check(pipeline_deployment, _events(*_IN_FLIGHT_GAP))
        assert result.ok
        assert result.stats["seconds"]["transition"] == pytest.approx(0.05)

    def test_same_gap_outside_transition_violates(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            _events(
                {
                    "t": 10.02,
                    "type": "replica.deactivate",
                    "replica": "pe1#0",
                },
                {
                    "t": 10.03,
                    "type": "replica.deactivate",
                    "replica": "pe1#1",
                },
                {
                    "t": 10.05,
                    "type": "replica.activate",
                    "replica": "pe1#0",
                },
            ),
        )
        assert not result.ok
        assert result.first().invariant == "ic-bound"


class TestOneJudge:
    """Both judges of the bound read one walker: breaking its transition
    rule once must trip the checker and burn the SLO budget alike."""

    @staticmethod
    def _judge(deployment):
        strategy = ActivationStrategy.all_active(deployment)
        now = [0.0]
        log = EventLog(clock=lambda: now[0])
        engine = SloEngine(
            log,
            FloorAvailability(
                deployment, strategy, strategy, 0, command_latency=0.05
            ),
        )
        log.add_tap(engine.on_event)
        for record in _IN_FLIGHT_GAP:
            now[0] = record["t"]
            fields = {
                k: v for k, v in record.items() if k not in ("t", "type")
            }
            log.emit(record["type"], **fields)
        engine.finalize(30.0)
        return _check(deployment, log.events()), engine.summary()

    def test_dropping_the_transition_label_trips_both(
        self, pipeline_deployment, monkeypatch
    ):
        result, slo = self._judge(pipeline_deployment)
        assert result.ok
        assert slo["bad_seconds"] == 0.0 and slo["alerts"] == []

        advance = FloorWalker.advance

        def never_transition(walker, until):
            # The walker sees no command in flight, ever.
            edge = walker.state.transition_until
            walker.state.transition_until = -math.inf
            try:
                yield from advance(walker, until)
            finally:
                walker.state.transition_until = edge

        monkeypatch.setattr(FloorWalker, "advance", never_transition)
        result, slo = self._judge(pipeline_deployment)
        assert "ic-bound" in {v.invariant for v in result.violations}
        assert slo["bad_seconds"] > 0.0
        assert "firing" in {alert["state"] for alert in slo["alerts"]}


class TestHostCapacity:
    def test_overcommitted_activation_is_flagged(
        self, tight_pipeline_deployment
    ):
        # Single-core hosts: all-active needs 160% of each host in the
        # High configuration (the Fig. 3 scenario).
        strategy = ActivationStrategy.all_active(tight_pipeline_deployment)
        result = check_campaign(
            _events(
                {
                    "t": 2.0,
                    "type": "config.switch",
                    "from": 0,
                    "to": 1,
                    "commands": 0,
                },
            ),
            tight_pipeline_deployment,
            strategy,
            strategy,
            0,
            command_latency=0.05,
            detection_bound=1.3,
            horizon=30.0,
        )
        assert not result.ok
        assert any(
            v.invariant == "host-capacity" for v in result.violations
        )

    def test_fits_within_capacity_in_low(self, tight_pipeline_deployment):
        strategy = ActivationStrategy.all_active(tight_pipeline_deployment)
        result = check_campaign(
            _events(),
            tight_pipeline_deployment,
            strategy,
            strategy,
            0,
            command_latency=0.05,
            detection_bound=1.3,
            horizon=30.0,
        )
        assert result.ok


class TestFailoverSpan:
    def _span(self, start, duration, pe="pe1", extra=()):
        return _events(
            *extra,
            {
                "t": start,
                "type": "span.start",
                "span": "s1",
                "name": "failover",
                "pe": pe,
                "replica": f"{pe}#0",
            },
            {
                "t": start + duration,
                "type": "span.end",
                "span": "s1",
                "name": "failover",
                "duration": duration,
                "pe": pe,
                "replica": f"{pe}#0",
            },
        )

    def test_prompt_failover_passes(self, pipeline_deployment):
        result = _check(pipeline_deployment, self._span(5.0, 1.0))
        assert result.ok
        assert result.stats["spans_checked"] == 1

    def test_overlong_failover_is_flagged(self, pipeline_deployment):
        result = _check(pipeline_deployment, self._span(5.0, 3.0))
        assert not result.ok
        assert result.first().invariant == "failover-span"

    def test_no_survivor_time_is_excused(self, pipeline_deployment):
        # Both replicas dead for 2.5 s inside the span: the election
        # could not complete, so the budget stretches accordingly.
        events = _events(
            {"t": 5.0, "type": "replica.crash", "replica": "pe1#0"},
            {"t": 5.0, "type": "replica.crash", "replica": "pe1#1"},
            {
                "t": 5.0,
                "type": "span.start",
                "span": "s1",
                "name": "failover",
                "pe": "pe1",
                "replica": "pe1#0",
            },
            {"t": 7.5, "type": "replica.recover", "replica": "pe1#1"},
            {
                "t": 7.8,
                "type": "span.end",
                "span": "s1",
                "name": "failover",
                "duration": 2.8,
                "pe": "pe1",
                "replica": "pe1#0",
            },
        )
        result = _check(pipeline_deployment, events)
        assert all(
            v.invariant != "failover-span" for v in result.violations
        )

    def test_unfinished_span_is_censored(self, pipeline_deployment):
        events = _events(
            {
                "t": 5.0,
                "type": "span.start",
                "span": "s1",
                "name": "failover",
                "pe": "pe1",
                "replica": "pe1#0",
            },
        )
        result = _check(pipeline_deployment, events)
        assert result.ok
        assert result.stats["spans_open"] == 1


class TestConservationAndLog:
    def test_balanced_counters_pass(self):
        violations = check_conservation(
            {
                "pe1#0": {
                    "received": 10,
                    "processed": 7,
                    "dropped": 1,
                    "lost": 1,
                    "queued": 1,
                }
            }
        )
        assert violations == []

    def test_leak_is_flagged(self):
        violations = check_conservation(
            {
                "pe1#0": {
                    "received": 10,
                    "processed": 7,
                    "dropped": 1,
                    "lost": 0,
                    "queued": 1,
                }
            }
        )
        assert len(violations) == 1
        assert violations[0].invariant == "conservation"
        assert "pe1#0" in violations[0].detail

    def test_conservation_feeds_check_campaign(self, pipeline_deployment):
        result = _check(
            pipeline_deployment,
            _events(),
            conservation={
                "pe1#0": {
                    "received": 5,
                    "processed": 3,
                    "dropped": 0,
                    "lost": 0,
                    "queued": 0,
                }
            },
        )
        assert not result.ok
        assert result.first().invariant == "conservation"

    def test_platform_table_feeds_both_verdicts(self):
        from repro.fleet.dataplane import (
            DataplaneParams,
            TenantTask,
            run_platform,
            tenant_platform,
        )

        params = DataplaneParams(
            tenants=1, duration=4.0, chaos_every=0, slo=False
        )
        task = TenantTask(params, 0)
        platform = tenant_platform(task)
        leaked = platform.deployment.replicas[0]
        platform.metrics.replica(leaked).received += 1
        digest = run_platform(task, platform)
        # One table, one identity: the tenant digest and the chaos
        # checker report the same leak with the same evidence.
        [violation] = check_conservation(platform.conservation())
        assert violation.detail.startswith(f"replica {leaked}: received ")
        assert digest["violations"] == [
            violation.detail.replace("replica", "conservation", 1)
        ]

    @pytest.mark.parametrize("text", ["pe1", "pe1#x"])
    def test_damaged_replica_id_is_a_typed_error(
        self, pipeline_deployment, text
    ):
        # Artifacts replay from disk through this path: a damaged log
        # names the offending text instead of a bare ValueError.
        events = _events({"t": 5.0, "type": "replica.crash", "replica": text})
        with pytest.raises(ReproError, match=text):
            _check(pipeline_deployment, events)

    def test_truncated_log_fails_loudly(self, pipeline_deployment):
        result = _check(pipeline_deployment, _events(), evicted=12)
        assert not result.ok
        assert result.first().invariant == "log-complete"
        assert "12" in result.first().detail


class TestMigrationInvariants:
    def _move_events(self, *extra):
        return _events(
            {
                "t": 2.0, "type": "migration.start", "migration": "m0",
                "pe": "pe1", "action": "move", "replica": "pe1#2",
                "src": "h0", "dst": "h1",
            },
            *extra,
        )

    def test_aborted_migration_rolls_back_cleanly(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            self._move_events(
                {
                    "t": 3.0, "type": "migration.abort",
                    "migration": "m0", "pe": "pe1",
                    "reason": "host.crash:h1",
                },
            ),
        )
        assert result.ok
        assert result.stats["migrations_seen"] == 1

    def test_election_of_rolled_back_replica_is_flagged(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            self._move_events(
                {
                    "t": 3.0, "type": "migration.abort",
                    "migration": "m0", "pe": "pe1",
                    "reason": "host.crash:h1",
                },
                {
                    "t": 4.0, "type": "primary.elected",
                    "pe": "pe1", "replica": "pe1#2",
                },
            ),
        )
        assert not result.ok
        assert [v.invariant for v in result.violations] == [
            "migration-rollback"
        ]

    def test_election_after_completed_migration_is_fine(
        self, pipeline_deployment
    ):
        result = _check(
            pipeline_deployment,
            self._move_events(
                {
                    "t": 3.0, "type": "migration.cutover",
                    "migration": "m0", "pe": "pe1",
                    "from": "pe1#0", "to": "pe1#2",
                },
                {
                    "t": 3.5, "type": "migration.done",
                    "migration": "m0", "pe": "pe1", "action": "move",
                    "lost": 0,
                },
                {
                    "t": 4.0, "type": "primary.elected",
                    "pe": "pe1", "replica": "pe1#2",
                },
            ),
        )
        assert result.ok

    def test_open_window_holds_the_worse_floor(self, pipeline_deployment):
        from repro.obs.replay import DeploymentState

        state = DeploymentState(
            pipeline_deployment,
            ActivationStrategy.all_active(pipeline_deployment).active_map(0),
            initial_config=0,
            command_latency=0.05,
        )
        floors = {0: 0.9, 1: 0.4}
        assert state.migration_floor(floors) == 0.9
        state.apply(
            2.0,
            "migration.start",
            {
                "migration": "m0", "pe": "pe1", "action": "move",
                "replica": "pe1#2", "src": "h0", "dst": "h1",
            },
        )
        # The window opened in config 0; after a switch to config 1 the
        # interval is held to the worse of the two deployments' floors.
        state.apply(2.5, "config.switch", {"to": 1})
        assert state.migration_floor(floors) == 0.4
        state.apply(2.6, "config.switch", {"to": 0})
        floors_flipped = {0: 0.4, 1: 0.9}
        state.apply(
            2.7,
            "migration.done",
            {"migration": "m0", "pe": "pe1", "action": "move", "lost": 0},
        )
        assert state.migration_floor(floors_flipped) == 0.4

    def test_remove_shrinks_membership(self, pipeline_deployment):
        result = _check(
            pipeline_deployment,
            _events(
                {
                    "t": 2.0, "type": "migration.start",
                    "migration": "m0", "pe": "pe1", "action": "remove",
                    "replica": "pe1#1", "src": "h1", "dst": "",
                },
                {
                    "t": 2.0, "type": "migration.done",
                    "migration": "m0", "pe": "pe1", "action": "remove",
                    "lost": 0,
                },
                # The removed replica's host crashing later must not
                # count against pe1 — it no longer lives there.
                {"t": 5.0, "type": "host.crash", "host": "h1"},
                {"t": 6.0, "type": "host.recover", "host": "h1"},
            ),
        )
        assert result.ok
