"""The injection value type, rack grouping, schedule application, and
the paper's three failure modes as schedules."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.chaos import (
    PAPER_MODES,
    CampaignSpec,
    Injection,
    apply_injection,
    paper_schedule,
    pessimistic_victims,
    racks,
    run_campaign,
)
from repro.core import ActivationStrategy, Host, ReplicaId
from repro.dsps import (
    InputTrace,
    PlatformConfig,
    StreamPlatform,
    TraceSegment,
    two_level_trace,
)
from repro.errors import ChaosError
from repro.placement import balanced_placement

GIGA = 1.0e9


def deployment_for(pipeline_descriptor):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, 2)


def platform_for(deployment, strategy, seconds=20.0):
    return StreamPlatform(
        deployment,
        {"src": InputTrace([TraceSegment(4.0, seconds, "Low")])},
        initial_active=strategy.active_map(0),
    )


class TestInjection:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown injection kind"):
            Injection.build("meteor_strike", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError, match="must be >= 0"):
            Injection.build("flap", at=-0.5)

    @pytest.mark.parametrize(
        "kind, at, params, bad",
        [
            ("flap", math.nan, {}, "at"),
            ("flap", math.inf, {}, "at"),
            ("rack_crash", 1.0, {"hosts": ["h00"], "downtime": -1.0},
             "downtime"),
            ("rack_crash", 1.0, {"hosts": ["h00"], "downtime": math.nan},
             "downtime"),
            ("migration_strike", 1.0, {"downtime": math.inf}, "downtime"),
            ("slow_host", 1.0,
             {"host": "h01", "factor": 0.5, "duration": -2.0}, "duration"),
            ("replica_hang", 1.0,
             {"replica": "pe0#0", "duration": math.nan}, "duration"),
            ("flap", 1.0,
             {"host": "h00", "period": math.inf, "downtime": 0.5,
              "cycles": 2}, "period"),
            ("recovery_storm", 1.0,
             {"hosts": ["h00", "h01"], "stagger": -0.1, "downtime": 3.0},
             "stagger"),
        ],
    )
    def test_time_that_cannot_run_rejected(self, kind, at, params, bad):
        # Artifacts are outside input: refuse where they are read, not
        # inside the kernel (or, for a negative downtime, not at all).
        record = {"kind": kind, "at": at, "params": params}
        value = at if bad == "at" else params[bad]
        with pytest.raises(ChaosError) as raised:
            Injection.from_dict(record)
        message = str(raised.value)
        assert repr(kind) in message
        assert f"{bad} must be >= 0 and finite" in message
        assert repr(value) in message

    def test_param_lookup(self):
        injection = Injection.build(
            "slow_host", at=2.0, host="host0", factor=0.5, duration=3.0
        )
        assert injection.param("host") == "host0"
        assert injection.param("factor") == 0.5
        with pytest.raises(ChaosError, match="no parameter"):
            injection.param("nope")

    def test_dict_roundtrip_preserves_identity(self):
        original = Injection.build(
            "rack_crash", at=4.5, hosts=("host0", "host1"), downtime=3.0
        )
        restored = Injection.from_dict(original.to_dict())
        assert restored == original

    def test_dict_roundtrip_survives_json(self):
        original = Injection.build(
            "recovery_storm",
            at=9.0,
            hosts=("host1", "host2"),
            stagger=0.5,
            downtime=4.0,
        )
        over_the_wire = json.loads(json.dumps(original.to_dict()))
        assert Injection.from_dict(over_the_wire) == original

    def test_params_are_order_insensitive(self):
        a = Injection.build("flap", at=1.0, host="h", cycles=2,
                            period=2.0, downtime=0.5)
        b = Injection.from_dict(
            {
                "kind": "flap",
                "at": 1.0,
                "params": {
                    "period": 2.0, "downtime": 0.5,
                    "host": "h", "cycles": 2,
                },
            }
        )
        assert a == b


class TestRacks:
    def test_chunks_sorted_hosts(self):
        grouping = racks(["host2", "host0", "host1"], rack_size=2)
        assert grouping == (("host0", "host1"), ("host2",))

    def test_rack_size_one(self):
        assert racks(["b", "a"], rack_size=1) == (("a",), ("b",))

    def test_invalid_rack_size(self):
        with pytest.raises(ChaosError, match="rack_size"):
            racks(["a"], rack_size=0)


class TestApplyInjection:
    """Schedule application, observed through a real campaign run."""

    def _run(self, bundle_path, strategy_path, schedule):
        spec = CampaignSpec(
            bundle=bundle_path,
            strategy=strategy_path,
            seed=0,
            duration=20.0,
            schedule=schedule,
        )
        return run_campaign(spec)

    def test_rack_crash_crashes_and_recovers_hosts(
        self, bundle_path, strategy_path
    ):
        digest = self._run(
            bundle_path,
            strategy_path,
            (
                Injection.build(
                    "rack_crash",
                    at=5.0,
                    hosts=("host0", "host1"),
                    downtime=4.0,
                ),
            ),
        )
        counts = digest["event_counts"]
        assert counts["chaos.inject"] == 1
        assert counts["host.crash"] == 2
        assert counts["host.recover"] == 2
        assert digest["invariants"]["ok"]

    def test_flap_cycles_one_host(self, bundle_path, strategy_path):
        digest = self._run(
            bundle_path,
            strategy_path,
            (
                Injection.build(
                    "flap",
                    at=3.0,
                    host="host0",
                    cycles=3,
                    period=3.0,
                    downtime=0.4,
                ),
            ),
        )
        assert digest["event_counts"]["host.crash"] == 3
        assert digest["event_counts"]["host.recover"] == 3

    def test_slow_host_degrades_and_restores(
        self, bundle_path, strategy_path
    ):
        digest = self._run(
            bundle_path,
            strategy_path,
            (
                Injection.build(
                    "slow_host",
                    at=4.0,
                    host="host1",
                    factor=0.4,
                    duration=6.0,
                ),
            ),
        )
        assert digest["event_counts"]["host.degrade"] == 1
        assert digest["event_counts"]["host.restore"] == 1
        assert digest["invariants"]["ok"]

    def test_replica_hang_crashes_one_replica(
        self, chaos_app, bundle_path, strategy_path
    ):
        replica = str(chaos_app.deployment.replicas[0])
        digest = self._run(
            bundle_path,
            strategy_path,
            (
                Injection.build(
                    "replica_hang", at=6.0, replica=replica, duration=4.0
                ),
            ),
        )
        assert digest["event_counts"]["replica.crash"] == 1
        assert digest["event_counts"]["replica.recover"] == 1

    def test_pessimistic_kills_one_replica_per_pe(
        self, chaos_app, bundle_path, strategy_path
    ):
        digest = self._run(
            bundle_path,
            strategy_path,
            (Injection.build("pessimistic", at=5.0),),
        )
        n_pes = len(chaos_app.deployment.descriptor.graph.pes)
        assert digest["event_counts"]["replica.crash"] == n_pes
        assert "replica.recover" not in digest["event_counts"]
        assert digest["invariants"]["ok"]

    def test_unknown_host_rejected(self, bundle_path, strategy_path):
        with pytest.raises(ChaosError, match="unknown host"):
            self._run(
                bundle_path,
                strategy_path,
                (
                    Injection.build(
                        "slow_host",
                        at=1.0,
                        host="ghost",
                        factor=0.5,
                        duration=1.0,
                    ),
                ),
            )

    def test_unknown_replica_rejected(self, bundle_path, strategy_path):
        with pytest.raises(ChaosError, match="unknown replica"):
            self._run(
                bundle_path,
                strategy_path,
                (
                    Injection.build(
                        "replica_hang",
                        at=1.0,
                        replica="ghost#0",
                        duration=1.0,
                    ),
                ),
            )

    def test_flap_downtime_must_undershoot_period(
        self, bundle_path, strategy_path
    ):
        with pytest.raises(ChaosError, match="shorter than"):
            self._run(
                bundle_path,
                strategy_path,
                (
                    Injection.build(
                        "flap",
                        at=1.0,
                        host="host0",
                        cycles=2,
                        period=1.0,
                        downtime=1.5,
                    ),
                ),
            )

    def test_storm_downtime_must_outlast_stagger(
        self, bundle_path, strategy_path
    ):
        with pytest.raises(ChaosError, match="outlast"):
            self._run(
                bundle_path,
                strategy_path,
                (
                    Injection.build(
                        "recovery_storm",
                        at=1.0,
                        hosts=("host0", "host1"),
                        stagger=2.0,
                        downtime=1.0,
                    ),
                ),
            )


class TestMigrationStrike:
    def _build(self, pipeline_descriptor):
        from repro.core import Host
        from repro.dsps import StreamPlatform, two_level_trace
        from repro.elastic import MigrationEngine
        from repro.placement import balanced_placement

        hosts = [
            Host(f"h{i}", cores=4, cycles_per_core=1.0e9)
            for i in range(3)
        ]
        deployment = balanced_placement(
            pipeline_descriptor, hosts, replication_factor=2
        )
        platform = StreamPlatform(
            deployment,
            {"src": two_level_trace(4.0, 8.0, duration=10.0)},
        )
        return platform, MigrationEngine(platform)

    def _free_host(self, platform, pe):
        taken = {
            m.host.name for m in platform.group(pe).members
        }
        return sorted(
            h.name
            for h in platform.deployment.hosts
            if h.name not in taken
        )[0]

    def test_requires_the_migration_engine(self, pipeline_descriptor):
        from repro.chaos.injectors import apply_injection

        platform, _engine = self._build(pipeline_descriptor)
        injection = Injection.build(
            "migration_strike", at=2.5, downtime=1.0
        )
        with pytest.raises(ChaosError, match="migration engine"):
            apply_injection(platform, injection)

    def test_strike_aborts_the_open_window(self, pipeline_descriptor):
        from repro.chaos.injectors import apply_injection

        platform, engine = self._build(pipeline_descriptor)
        src = sorted(
            m.host.name for m in platform.group("pe1").members
        )[0]
        dst = self._free_host(platform, "pe1")
        platform.env.schedule_at(
            2.0, lambda: engine.migrate("pe1", src, dst)
        )
        # Transfer 0.05s then a 1s dual window: 2.5 lands inside it.
        apply_injection(
            platform,
            Injection.build("migration_strike", at=2.5, downtime=1.0),
            engine=engine,
        )
        platform.run()
        assert engine.aborted == 1
        assert engine.completed == 0
        types = [
            json.loads(line)["type"]
            for line in platform.telemetry.events.to_jsonl().splitlines()
        ]
        assert "chaos.inject" in types
        assert "migration.abort" in types

    def test_no_open_window_is_a_deterministic_noop(
        self, pipeline_descriptor
    ):
        from repro.chaos.injectors import apply_injection

        platform, engine = self._build(pipeline_descriptor)
        apply_injection(
            platform,
            Injection.build("migration_strike", at=2.5, downtime=1.0),
            engine=engine,
        )
        platform.run()
        assert engine.attempted == 0
        types = [
            json.loads(line)["type"]
            for line in platform.telemetry.events.to_jsonl().splitlines()
        ]
        assert "host.crash" not in types


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
        platform = platform_for(deployment, strategy, seconds=10.0)
        (worst,) = paper_schedule("worst", deployment, None, None)
        apply_injection(platform, worst, strategy=strategy)
        metrics = platform.run()
        # Every PE's only active replica is dead: no output at all.
        assert metrics.total_output == 0
        assert metrics.tuples_processed == 0
        for pe, victim in pessimistic_victims(strategy).items():
            assert not platform.replica(ReplicaId(pe, victim)).alive

    def test_sr_strategy_survives_worst_case(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        platform = platform_for(deployment, strategy)
        (worst,) = paper_schedule("worst", deployment, None, None)
        apply_injection(platform, worst, strategy=strategy)
        metrics = platform.run()
        # One replica of each PE remains and Low fits on the survivors.
        assert metrics.total_output > 0.8 * metrics.total_input


def _failovers(platform) -> list[float]:
    return [
        event.fields["duration"]
        for event in platform.telemetry.events.of_type("span.end")
        if event.fields["name"] == "failover"
    ]


class TestPessimisticAtZero:
    """``pessimistic`` at 0 is the paper's worst case: dead from the
    start, with no detection transient; at any later instant the crash
    is detected like every other."""

    def test_dead_from_the_start_like_crashing_by_hand(
        self, pipeline_descriptor
    ):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        by_hand = platform_for(deployment, strategy)
        for pe, victim in sorted(pessimistic_victims(strategy).items()):
            by_hand.crash_replica(ReplicaId(pe, victim))
            by_hand.group(pe).elect_now()
        scheduled = platform_for(deployment, strategy)
        apply_injection(
            scheduled,
            Injection.build("pessimistic", at=0.0),
            strategy=strategy,
        )
        expected = by_hand.run().tuples_processed
        assert scheduled.run().tuples_processed == expected
        # No failover window: every election resolved at the crash.
        assert _failovers(scheduled) == _failovers(by_hand)
        assert all(duration == 0.0 for duration in _failovers(scheduled))

    def test_later_instant_still_pays_detection(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        platform = platform_for(deployment, strategy)
        apply_injection(
            platform,
            Injection.build("pessimistic", at=1.0),
            strategy=strategy,
        )
        platform.run()
        delay = PlatformConfig().failover_delay
        assert max(_failovers(platform)) >= delay


class TestPaperSchedule:
    def test_modes_in_report_order(self):
        assert PAPER_MODES == ("none", "worst", "crash")

    def test_none_and_worst(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        assert paper_schedule("none", deployment, None, None) == ()
        assert paper_schedule("worst", deployment, None, None) == (
            Injection.build("pessimistic", at=0.0),
        )

    def test_unknown_mode_rejected(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        with pytest.raises(ChaosError, match="unknown failure mode"):
            paper_schedule("meteor", deployment, None, None)

    def test_crash_draws_host_then_window_then_instant(
        self, pipeline_descriptor
    ):
        deployment = deployment_for(pipeline_descriptor)
        trace = two_level_trace(4.0, 8.0, duration=120.0)
        windows = trace.segment_windows("High")
        rng, oracle = random.Random(3), random.Random(3)
        for _ in range(10):
            (crash,) = paper_schedule("crash", deployment, trace, rng)
            host = oracle.choice(sorted(deployment.host_names))
            start, end = windows[oracle.randrange(len(windows))]
            at = oracle.uniform(start, max(start, end - 16.0))
            assert crash == Injection.build(
                "rack_crash", at=at, hosts=(host,), downtime=16.0
            )
            assert start <= crash.at < end

    def test_crash_requires_high_windows(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        trace = InputTrace([TraceSegment(4.0, 10.0, "Low")])
        with pytest.raises(ChaosError, match="no High windows"):
            paper_schedule("crash", deployment, trace, random.Random(0))

    def test_crash_and_recovery_execute(self, pipeline_descriptor):
        deployment = deployment_for(pipeline_descriptor)
        trace = InputTrace([TraceSegment(4.0, 60.0, "Low")])
        platform = StreamPlatform(deployment, {"src": trace})
        apply_injection(
            platform,
            Injection.build(
                "rack_crash", at=20.0, hosts=("h0",), downtime=16.0
            ),
        )
        metrics = platform.run()
        events = platform.telemetry.events
        assert events.count("host.crash") == 1
        assert events.count("host.recover") == 1
        # Replication hides the crash almost completely.
        assert metrics.total_output > 0.85 * metrics.total_input
