"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestScheduling:
    def test_events_fire_in_time_order(self):
        env = Environment()
        log = []
        env.schedule(2.0, lambda: log.append("b"))
        env.schedule(1.0, lambda: log.append("a"))
        env.schedule(3.0, lambda: log.append("c"))
        env.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        env = Environment()
        log = []
        for name in "abc":
            env.schedule(1.0, lambda n=name: log.append(n))
        env.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        env = Environment()
        seen = []
        env.schedule(5.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [5.0]
        assert env.now == 5.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            env.schedule(float("nan"), lambda: None)
        assert not env._queue

    def test_cancelled_event_does_not_fire(self):
        env = Environment()
        log = []
        handle = env.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        env.run()
        assert log == []

    def test_run_until_stops_the_clock(self):
        env = Environment()
        log = []
        env.schedule(1.0, lambda: log.append(1))
        env.schedule(10.0, lambda: log.append(10))
        env.run(until=5.0)
        assert log == [1]
        assert env.now == 5.0
        env.run()
        assert log == [1, 10]

    def test_run_until_is_inclusive(self):
        env = Environment()
        log = []
        env.schedule(5.0, lambda: log.append("edge"))
        env.run(until=5.0)
        assert log == ["edge"]

    def test_run_until_past_rejected(self):
        env = Environment()
        env.schedule(5.0, lambda: None)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_schedule_at(self):
        env = Environment(start_time=10.0)
        seen = []
        env.schedule_at(12.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [12.0]
        with pytest.raises(SimulationError):
            env.schedule_at(5.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        env = Environment()
        log = []

        def first():
            log.append(("first", env.now))
            env.schedule(1.0, lambda: log.append(("second", env.now)))

        env.schedule(1.0, first)
        env.run()
        assert log == [("first", 1.0), ("second", 2.0)]

    def test_cancelled_events_counted_separately(self):
        env = Environment()
        kept = env.schedule(1.0, lambda: None)
        for _ in range(3):
            env.schedule(2.0, lambda: None).cancel()
        env.run()
        assert kept.cancelled is False
        assert env.events_processed == 1
        assert env.events_cancelled == 3

    def test_reserved_number_ties_where_it_was_drawn(self):
        env = Environment()
        order = []
        reserved = env.take_seq()
        env.schedule(1.0, lambda: order.append("later draw"))
        env.schedule(1.0, lambda: order.append("reserved"), seq=reserved)
        assert env._sequence == 2  # the reserved push drew nothing
        env.run()
        assert order == ["reserved", "later draw"]

    def test_undrawn_reserved_number_rejected(self):
        env = Environment()
        env.take_seq()
        with pytest.raises(SimulationError):
            env.schedule(1.0, lambda: None, seq=1)
        with pytest.raises(SimulationError):
            env.schedule(1.0, lambda: None, seq=7)
        assert env._sequence == 1 and not env._queue


class _StubEngine:
    """The kernel's engine protocol with a scripted ``advance``."""

    def __init__(self, on_advance):
        self._on_advance = on_advance

    def advance(self, until):
        self._on_advance(until)


class TestEngineGrant:
    def test_engine_is_consulted_before_every_heap_event(self):
        env = Environment()
        log = []
        env.schedule(1.0, lambda: log.append("a"))
        env.schedule(2.0, lambda: log.append("b"))
        env.engine = _StubEngine(lambda until: log.append(("advance", until)))
        env.run(until=3.0)
        # Once per dispatched event, and once more to find the heap dry.
        assert log == [
            ("advance", 3.0),
            "a",
            ("advance", 3.0),
            "b",
            ("advance", 3.0),
        ]

    def test_the_purge_is_the_engines(self):
        """With an engine attached the kernel purges nothing itself: a
        cancelled head past ``until`` may lie behind an engine event
        (an arrival the horizon cut off) and then must stay uncounted."""
        env = Environment()
        env.schedule(2.0, lambda: None).cancel()
        env.engine = _StubEngine(lambda until: None)
        env.run(until=1.0)
        assert env.events_cancelled == 0
        env.engine = None
        env.run(until=1.0)
        assert env.events_cancelled == 1

    def test_head_cancelled_during_the_grant_does_not_fire(self):
        """An engine-run callback may cancel the very heap event the
        kernel was about to dispatch; the kernel dispatches what it
        finds at the head once the engine (purge included) is done."""
        env = Environment()
        log = []
        handle = env.schedule(1.0, lambda: log.append("cancelled"))
        env.schedule(2.0, lambda: log.append("live"))

        def advance(until):
            handle.cancel()
            env._purge_cancelled()

        env.engine = _StubEngine(advance)
        env.run()
        assert log == ["live"]
        assert env.events_processed == 1
        assert env.events_cancelled == 1

    def test_engine_may_consume_the_last_head(self):
        """The engine fires a head itself (``fire_head``); the loop
        must survive finding the heap empty afterwards."""
        env = Environment()
        seen = []
        env.schedule(1.0, lambda: seen.append(env.now))
        env.engine = _StubEngine(
            lambda until: env.fire_head() if not seen else None
        )
        env.run(until=3.0)
        assert seen == [1.0]
        assert env.events_processed == 1
        assert env.now == 3.0

    def test_tuple_granular_loop_never_probes(self):
        env = Environment()
        log = []

        def probe(time):
            raise AssertionError("probed without an engine")

        def step(time):
            log.append(("stepped", time, env.now))
            return 0.5 if time < 2.0 else None

        env.recur(1.0, step, probe)
        env.run()
        # One heap event per firing, at its time; the chain stops when
        # its step returns None.
        assert log == [("stepped", t, t) for t in (1.0, 1.5, 2.0)]
        assert env.events_processed == 3
