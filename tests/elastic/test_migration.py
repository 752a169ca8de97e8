"""Tests for the live-migration protocol (repro.elastic.migration)."""

from __future__ import annotations

import json

import pytest

from repro.core import Host
from repro.dsps import PlatformConfig, StreamPlatform, two_level_trace
from repro.elastic import MigrationAction, MigrationEngine
from repro.errors import SimulationError
from repro.placement import balanced_placement

GIGA = 1.0e9


def build(pipeline_descriptor, *, batching=False, duration=12.0, hosts=3):
    """Pipeline replicated twice over ``hosts`` roomy hosts."""
    pool = [
        Host(f"h{i}", cores=4, cycles_per_core=GIGA) for i in range(hosts)
    ]
    deployment = balanced_placement(
        pipeline_descriptor, pool, replication_factor=2
    )
    platform = StreamPlatform(
        deployment,
        {"src": two_level_trace(4.0, 8.0, duration=duration)},
        config=PlatformConfig(batching=batching),
    )
    return platform, MigrationEngine(platform)


def event_types(platform):
    return [
        json.loads(line)["type"]
        for line in platform.telemetry.events.to_jsonl().splitlines()
    ]


def hosts_of(platform, pe):
    return sorted(
        member.host.name for member in platform.group(pe).members
    )


def free_host(platform, pe):
    taken = set(hosts_of(platform, pe))
    return sorted(
        host.name
        for host in platform.deployment.hosts
        if host.name not in taken
    )[0]


class TestActions:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown migration"):
            MigrationAction(kind="teleport", pe="pe1")

    def test_missing_hosts_rejected(self):
        with pytest.raises(SimulationError):
            MigrationAction(kind="move", pe="pe1", src="h0")
        with pytest.raises(SimulationError):
            MigrationAction(kind="add", pe="pe1")
        with pytest.raises(SimulationError):
            MigrationAction(kind="rescale", pe="pe1", parallelism=0)


class TestMoveProtocol:
    def test_move_walks_all_four_steps(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        dst = free_host(platform, "pe1")
        platform.env.schedule_at(
            2.0, lambda: engine.migrate("pe1", src, dst)
        )
        platform.run()
        types = event_types(platform)
        order = [
            types.index("migration.start"),
            types.index("migration.transfer"),
            types.index("migration.cutover"),
            types.index("migration.done"),
        ]
        assert order == sorted(order)
        assert engine.completed == 1
        assert engine.aborted == 0
        assert engine.open_migrations == ()
        assert dst in hosts_of(platform, "pe1")
        assert src not in hosts_of(platform, "pe1")

    def test_tuples_conserved_across_handover(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        dst = free_host(platform, "pe1")
        platform.env.schedule_at(
            2.0, lambda: engine.migrate("pe1", src, dst)
        )
        metrics = platform.run()
        assert metrics.total_input > 0
        for replica_id, m in metrics.replicas.items():
            queued = platform.replica(replica_id).queue_length
            assert (
                m.received == m.processed + m.dropped + m.lost + queued
            ), f"conservation broken for {replica_id}"

    def test_infeasible_move_raises(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        other = hosts_of(platform, "pe1")[1]
        with pytest.raises(SimulationError, match="already on"):
            engine.migrate("pe1", src, other)

    def test_cordoned_destination_refused(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        dst = free_host(platform, "pe1")
        engine.cordon(dst)
        ok, reason = engine.feasible(
            MigrationAction(kind="move", pe="pe1", src=src, dst=dst)
        )
        assert not ok and "cordoned" in reason


class TestAbort:
    def test_host_crash_mid_transfer_rolls_back(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        dst = free_host(platform, "pe1")
        platform.env.schedule_at(
            2.0, lambda: engine.migrate("pe1", src, dst)
        )
        # Transfer takes 0.05s (0.1 Gcycle state, 0.5 s/Gcycle); the
        # dual window then runs 1s — this kill lands inside it.
        platform.env.schedule_at(2.5, lambda: platform.crash_host(dst))
        platform.env.schedule_at(4.0, lambda: platform.recover_host(dst))
        platform.run()
        assert engine.aborted == 1
        assert engine.completed == 0
        types = event_types(platform)
        assert "migration.abort" in types
        assert "migration.cutover" not in types
        # Rollback: the old deployment is authoritative again.
        assert src in hosts_of(platform, "pe1")
        assert dst not in hosts_of(platform, "pe1")

    def test_abort_past_cutover_refused(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        src = hosts_of(platform, "pe1")[0]
        dst = free_host(platform, "pe1")
        mid_box = {}

        def start():
            mid_box["mid"] = engine.migrate("pe1", src, dst)

        failures = {}

        def late_abort():
            try:
                engine.abort(mid_box["mid"], "too-late")
            except SimulationError as exc:
                failures["error"] = str(exc)

        platform.env.schedule_at(2.0, start)
        # 2.0 + transfer 0.05 + dual 1.0 = cutover at 3.05; the drain
        # grace runs until 4.05, so 3.5 is past the commit point.
        platform.env.schedule_at(3.5, late_abort)
        platform.run()
        assert "past cutover" in failures["error"]
        assert engine.completed == 1


class TestRescale:
    def test_scale_down_then_up_mirrors(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        platform.env.schedule_at(2.0, lambda: engine.rescale("pe1", 1))
        platform.env.schedule_at(6.0, lambda: engine.rescale("pe1", 2))
        platform.run()
        assert engine.completed == 2
        members = platform.group("pe1").members
        assert sum(1 for m in members if m.active) == 2
        types = event_types(platform)
        assert types.count("migration.start") == 2
        assert types.count("migration.done") == 2

    def test_never_deactivates_last_cover(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        host = hosts_of(platform, "pe1")[0]

        def kill_then_rescale():
            platform.crash_host(host)
            engine.rescale("pe1", 1)

        platform.env.schedule_at(2.0, kill_then_rescale)
        platform.run()
        # One of the two replicas is dead; scaling to 1 must keep the
        # alive one active and instead deactivate the dead one.
        members = platform.group("pe1").members
        assert any(m.alive and m.active for m in members)

    def test_remove_last_cover_refused(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        first, second = hosts_of(platform, "pe1")
        platform.crash_host(second)
        ok, reason = engine.feasible(
            MigrationAction(kind="remove", pe="pe1", src=first)
        )
        assert not ok and "last cover" in reason


class TestDrain:
    def test_drain_evacuates_and_reclaims(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        victim = hosts_of(platform, "pe1")[0]
        platform.env.schedule_at(2.0, lambda: engine.drain(victim))
        platform.run()
        types = event_types(platform)
        assert "host.cordon" in types
        assert "host.drain" in types
        assert "host.reclaim" in types
        assert platform.residents(victim) == ()
        assert victim in engine.cordoned

    def test_add_replica_warms_then_joins(self, pipeline_descriptor):
        platform, engine = build(pipeline_descriptor)
        dst = free_host(platform, "pe1")
        platform.env.schedule_at(
            2.0, lambda: engine.add_replica("pe1", dst)
        )
        platform.run()
        assert engine.completed == 1
        assert dst in hosts_of(platform, "pe1")
        assert len(platform.group("pe1").members) == 3


class TestByteIdentity:
    @pytest.mark.parametrize("scenario", ["move", "abort", "drain"])
    def test_batched_matches_tuple_granular(
        self, pipeline_descriptor, scenario
    ):
        logs = []
        for batching in (False, True):
            platform, engine = build(
                pipeline_descriptor, batching=batching
            )
            src = hosts_of(platform, "pe1")[0]
            dst = free_host(platform, "pe1")
            if scenario == "move":
                platform.env.schedule_at(
                    2.0, lambda e=engine, s=src, d=dst: e.migrate(
                        "pe1", s, d
                    )
                )
            elif scenario == "abort":
                platform.env.schedule_at(
                    2.0, lambda e=engine, s=src, d=dst: e.migrate(
                        "pe1", s, d
                    )
                )
                platform.env.schedule_at(
                    2.5, lambda p=platform, d=dst: p.crash_host(d)
                )
                platform.env.schedule_at(
                    4.0, lambda p=platform, d=dst: p.recover_host(d)
                )
            else:
                platform.env.schedule_at(
                    2.0, lambda e=engine, s=src: e.drain(s)
                )
            platform.run()
            logs.append(platform.telemetry.events.to_jsonl())
        assert logs[0] == logs[1]
