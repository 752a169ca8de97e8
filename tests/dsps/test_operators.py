"""Tests for the PE replica runtime and replica groups."""

from __future__ import annotations

import pytest

from repro.core import ReplicaId
from repro.dsps.hosts import HostScheduler
from repro.dsps.metrics import ReplicaMetrics
from repro.dsps.operators import OperatorReplica, PortSpec, ReplicaGroup
from repro.errors import SimulationError
from repro.sim import Environment
from tests.support import live_heap


def build_replica(
    env,
    emitted,
    index=0,
    capacity=4,
    selectivity=1.0,
    cycles=10.0,
    host=None,
    active=True,
    resync_delay=0.0,
):
    host = host or HostScheduler(env, "h", capacity=10.0, cycles_per_core=10.0)
    metrics = ReplicaMetrics()
    replica = OperatorReplica(
        env=env,
        replica_id=ReplicaId("pe", index),
        host=host,
        ports=[
            PortSpec(
                name="up", cycles=cycles, selectivity=selectivity,
                capacity=capacity,
            )
        ],
        metrics=metrics,
        emit=lambda r, birth: emitted.append(env.now),
        initially_active=active,
        resync_delay=resync_delay,
    )
    return replica, metrics


def with_group(env, *replicas, failover_delay=1.0):
    group = ReplicaGroup(env, "pe", failover_delay=failover_delay)
    for replica in replicas:
        group.add(replica)
    group.initialise_primary()
    return group


class TestPortSpec:
    def test_rejects_negative_cycles(self):
        with pytest.raises(SimulationError):
            PortSpec("up", cycles=-1.0, selectivity=1.0, capacity=1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            PortSpec("up", cycles=1.0, selectivity=1.0, capacity=0)

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf")])
    def test_rejects_non_finite_cycles(self, cycles):
        # A NaN or infinite cost would keep its host's completion at one
        # instant forever.
        with pytest.raises(SimulationError, match="port 'up'"):
            PortSpec("up", cycles=cycles, selectivity=1.0, capacity=1)


class TestProcessing:
    def test_tuple_processed_and_emitted(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted)
        with_group(env, replica)
        replica.on_tuple("up")
        env.run()
        assert metrics.processed == 1
        assert metrics.processed_as_primary == 1
        assert emitted == [1.0]  # 10 cycles at 10 c/s
        assert metrics.busy_time == pytest.approx(1.0)

    def test_queue_overflow_drops(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted, capacity=2)
        with_group(env, replica)
        # Port capacity counts the in-service tuple: 2 fit, 2 drop.
        for _ in range(4):
            replica.on_tuple("up")
        env.run()
        assert metrics.dropped == 2
        assert metrics.dropped_as_primary == 2
        assert metrics.processed == 2

    def test_selectivity_half_emits_every_other_tuple(self):
        env = Environment()
        emitted = []
        replica, _ = build_replica(env, emitted, selectivity=0.5, capacity=10)
        with_group(env, replica)
        for _ in range(4):
            replica.on_tuple("up")
        env.run()
        assert len(emitted) == 2

    def test_selectivity_above_one_emits_extra(self):
        env = Environment()
        emitted = []
        replica, _ = build_replica(env, emitted, selectivity=1.5, capacity=10)
        with_group(env, replica)
        for _ in range(4):
            replica.on_tuple("up")
        env.run()
        # Credits 1.5, 3.0, 4.5, 6.0 -> emissions 1, 2, 1, 2.
        assert len(emitted) == 6

    def test_secondary_processes_but_does_not_emit(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        secondary, secondary_metrics = build_replica(
            env, emitted, index=1,
            host=HostScheduler(env, "h2", 10.0, 10.0),
        )
        with_group(env, primary, secondary)
        primary.on_tuple("up")
        secondary.on_tuple("up")
        env.run()
        assert len(emitted) == 1  # only the primary forwarded
        assert secondary_metrics.processed == 1
        assert secondary_metrics.processed_as_primary == 0


class TestActivation:
    def test_inactive_replica_ignores_input(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted, active=False)
        with_group(env, replica)
        replica.on_tuple("up")
        env.run()
        assert metrics.received == 0
        assert metrics.processed == 0
        assert emitted == []

    def test_deactivate_aborts_and_clears_queue(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted, capacity=10)
        with_group(env, replica)
        for _ in range(3):
            replica.on_tuple("up")
        env.schedule(0.5, replica.deactivate)
        env.run()
        # Only the half-finished tuple's CPU was consumed; nothing done.
        assert metrics.processed == 0
        assert metrics.busy_time == pytest.approx(0.5)
        assert replica.queue_length == 0
        assert not replica.active

    def test_reactivation_resumes_processing(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted)
        with_group(env, replica)
        replica.deactivate()
        replica.activate()
        replica.on_tuple("up")
        env.run()
        assert metrics.processed == 1

    def test_resync_delay_blocks_input(self):
        env = Environment()
        emitted = []
        replica, metrics = build_replica(env, emitted, resync_delay=2.0)
        with_group(env, replica)
        replica.deactivate()
        replica.activate()
        replica.on_tuple("up")  # still resyncing: ignored
        env.schedule(3.0, lambda: replica.on_tuple("up"))
        env.run()
        assert metrics.processed == 1


class TestFailover:
    def test_primary_crash_elects_secondary_after_delay(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        secondary, _ = build_replica(
            env, emitted, index=1, host=HostScheduler(env, "h2", 10.0, 10.0)
        )
        group = with_group(env, primary, secondary, failover_delay=1.0)
        assert group.primary is primary
        primary.crash()
        assert group.primary is None  # failure not yet detected
        env.run()
        assert group.primary is secondary

    def test_deactivation_hands_over_immediately(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        secondary, _ = build_replica(
            env, emitted, index=1, host=HostScheduler(env, "h2", 10.0, 10.0)
        )
        group = with_group(env, primary, secondary)
        primary.deactivate()
        assert group.primary is secondary

    def test_no_processable_member_leaves_group_dead(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        secondary, _ = build_replica(
            env, emitted, index=1,
            host=HostScheduler(env, "h2", 10.0, 10.0), active=False,
        )
        group = with_group(env, primary, secondary)
        primary.crash()
        env.run()
        assert group.primary is None

    def test_recovered_replica_becomes_primary_if_group_dead(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        group = with_group(env, primary)
        primary.crash()
        env.run()
        assert group.primary is None
        primary.recover()
        assert group.primary is primary
        assert primary.alive

    def test_crash_is_idempotent(self):
        env = Environment()
        emitted = []
        replica, _ = build_replica(env, emitted)
        with_group(env, replica)
        changes = []
        replica.on_state_change = lambda: changes.append(replica.alive)
        replica.crash()
        replica.crash()
        assert changes == [False]

    def test_secondary_crash_keeps_primary(self):
        env = Environment()
        emitted = []
        primary, _ = build_replica(env, emitted, index=0)
        secondary, _ = build_replica(
            env, emitted, index=1, host=HostScheduler(env, "h2", 10.0, 10.0)
        )
        group = with_group(env, primary, secondary)
        secondary.crash()
        env.run()
        assert group.primary is primary


class TestPortCounters:
    def test_port_without_a_tuple_stays_out_of_the_metrics(self):
        """Counters are resolved per port on the first tuple: a port
        nothing arrived on is absent, not present-with-zeros."""
        env = Environment()
        metrics = ReplicaMetrics()
        replica = OperatorReplica(
            env=env,
            replica_id=ReplicaId("pe", 0),
            host=HostScheduler(env, "h", 10.0, 10.0),
            ports=[
                PortSpec("left", cycles=10.0, selectivity=1.0, capacity=4),
                PortSpec("right", cycles=10.0, selectivity=1.0, capacity=4),
            ],
            metrics=metrics,
            emit=lambda r, birth: None,
        )
        with_group(env, replica)
        assert metrics.ports == {}
        replica.on_tuple("left")
        replica.on_tuple("left")
        env.run()
        assert list(metrics.ports) == ["left"]
        left = metrics.ports["left"]
        assert (left.received, left.processed, left.emitted) == (2, 2, 2)
        assert left.busy_time == pytest.approx(2.0)


class _Stages:
    """A tuple tracer that logs every lifecycle stage with its instant."""

    def __init__(self, env, log):
        self._env = env
        self._log = log

    def stage(self, name, birth, replica):
        self._log.append((name, replica, self._env.now))


class TestEqualInstantTies:
    def test_replicas_on_equal_hosts_finish_together_in_recorded_order(self):
        """Two replicas of ``pe`` on two equal hosts finish at the same
        float instant, each with a tuple queued behind the one in service
        and a host-mate (``side``) still running; the primary's output
        lands on both hosts inside the first host's completion. The
        expected values were recorded on the scheduler that pushed one
        event per reschedule (`57dacb9`): stage order, the ``(time, seq)``
        of the two hosts' next — again tied — events, and the counter."""
        env = Environment()
        hosts = [HostScheduler(env, name, 10.0, 10.0) for name in ("h0", "h1")]
        log = []
        tracer = _Stages(env, log)
        groups = {}

        def replica(pe, index, port, cycles, emit):
            made = OperatorReplica(
                env=env,
                replica_id=ReplicaId(pe, index),
                host=hosts[index],
                ports=[
                    PortSpec(port, cycles=cycles, selectivity=1.0, capacity=8)
                ],
                metrics=ReplicaMetrics(),
                emit=emit,
                tracer=tracer,
            )
            groups.setdefault(pe, ReplicaGroup(env, pe)).add(made)
            return made

        def forward(sender, birth):
            for target in groups["down"].members:
                target.on_tuple("pe", birth)

        def out(sender, birth):
            log.append(("out", str(sender.replica_id), env.now))

        ups = [replica("pe", i, "src", 10.0, forward) for i in (0, 1)]
        for i in (0, 1):
            replica("down", i, "pe", 5.0, out)
        sides = [replica("side", i, "src", 20.0, out) for i in (0, 1)]
        for group in groups.values():
            group.initialise_primary()
        for first in (*sides, *ups, ups[1], ups[0]):
            first.on_tuple("src")

        env.run(until=2.0)
        assert log[6:] == [
            ("process", "pe#0", 2.0),
            ("enqueue", "down#0", 2.0),
            ("enqueue", "down#1", 2.0),
            ("process", "pe#1", 2.0),
        ]
        assert live_heap(env) == [(3.5, 7), (3.5, 9)]
        env.run()
        assert log[10:] == [
            ("process", "down#0", 3.5),
            ("out", "down#0", 3.5),
            ("process", "down#1", 3.5),
            ("process", "side#0", 4.5),
            ("out", "side#0", 4.5),
            ("process", "pe#0", 4.5),
            ("enqueue", "down#0", 4.5),
            ("enqueue", "down#1", 4.5),
            ("process", "side#1", 4.5),
            ("process", "pe#1", 4.5),
            ("process", "down#0", 5.0),
            ("out", "down#0", 5.0),
            ("process", "down#1", 5.0),
        ]
        assert env._sequence == 15
        assert env.events_processed == 8
