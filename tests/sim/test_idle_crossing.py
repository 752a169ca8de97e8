"""Pinned edge cases of stepping chain firings inside closed-form trains.

``test_generated_equivalence.py`` draws these situations at random;
here each is built by hand on dyadic numbers (exact float arithmetic),
so the suite exercises every branch of the stepping on every run and
says *which* branch it was. All scenarios run Low-rate arrivals at
``k / low`` for ``k >= 1`` and stop before the High burst.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.dsps.batched import BatchEngine
from tests.sim.test_generated_equivalence import (
    Control,
    Scenario,
    Tick,
    Ticker,
    assert_modes_agree,
    run,
)

NOTHING = Control(time=0.0, kind="restore", a=0, b=0)


def tick(
    kind: str,
    period: float,
    start: float,
    act_at: float = 0.0,
    action: Control = NOTHING,
) -> Tick:
    return Tick(kind, period, start, act_at, action)


def scenario(
    delays: tuple[float, ...],
    low: float,
    ticks: tuple[Tick, ...],
    until: Optional[float] = 2.5,
) -> Scenario:
    return Scenario(
        delays=delays,
        selectivities=(1.0,) * len(delays),
        n_hosts=4,
        low=low,
        high=2.0 * low,
        duration=4.0,  # the High burst starts at 2.8
        high_position=1.0,
        jitter=0.0,
        controls=(),
        ticks=ticks,
        until=until,
    )


@pytest.fixture
def replays(monkeypatch) -> list[int]:
    """Counts tuple-granular replays around already-stepped firings."""
    calls: list[int] = []
    replay = BatchEngine._replay_owing

    def counting(self, cursor, owed):
        calls.append(len(owed))
        replay(self, cursor, owed)

    monkeypatch.setattr(BatchEngine, "_replay_owing", counting)
    return calls


class TestEqualTimes:
    def test_arrival_exactly_on_a_tick_takes_the_exact_path(self):
        # Arrivals every 1/4 s; from t = 1 on, ticks every 1/8 s. An
        # arrival draws its sequence number at the arrival before it, a
        # tick at the tick before it — 1/8 s later — so from 1.25 on
        # the arrival precedes the tick of its own instant and the
        # engine sees that tick as the heap head *at* the cascade start.
        stats = assert_modes_agree(
            scenario((2.0**-6,) * 3, 4.0, (tick("idle", 0.125, 1.0),))
        )
        assert stats["cascades"] == 4  # t = 0.25 .. 1.0
        assert stats["bails"] == 6  # t = 1.25 .. 2.5
        assert stats["ticks_stepped"] == 1  # t = 1.125, between two runs

    def test_step_completion_exactly_on_a_tick_takes_the_exact_path(self):
        # Ticks at 1/32 + k/2: on the first completion (t + 1/32) of
        # the cascades at t = 0.5, 1.0, 1.5, 2.0. The arrivals in
        # between commit in closed form; 2.5 is the horizon.
        stats = assert_modes_agree(
            scenario((2.0**-5,) * 2, 4.0, (tick("idle", 0.5, 2.0**-5),))
        )
        assert stats["cascades"] == 5
        assert stats["bails"] == 5
        assert stats["ticks_stepped"] == 0


class TestInsideOneCascade:
    def test_tick_period_shorter_than_the_cascade_span(self, replays):
        # Span 1/4 s, ticks every 1/64 s offset by 1/128 s: sixteen
        # firings inside each cascade, none on a completion.
        stats = assert_modes_agree(
            scenario((2.0**-4,) * 4, 2.0, (tick("idle", 2.0**-6, 2.0**-7),))
        )
        assert stats["runs"] == 1
        assert stats["cascades"] == 4  # t = 0.5 .. 2.0; 2.5 is the horizon
        assert stats["ticks_stepped"] == 7 * 16  # 0.5 .. 2.25
        assert replays == []

    def test_two_ticks_at_one_instant_straddled_by_one_cascade(
        self, replays
    ):
        # Two periodic events firing at the same instants, as the
        # elastic dataplane's meter and autoscaler do.
        meter = autoscaler = tick("idle", 2.0**-3, 2.0**-7)
        pair = (meter, autoscaler)
        stats = assert_modes_agree(scenario((2.0**-4,) * 4, 2.0, pair))
        assert stats["runs"] == 1
        assert stats["ticks_stepped"] == 2 * 14
        assert replays == []

    def test_successor_on_a_completion_replays_around_the_fired_tick(
        self, replays
    ):
        # Completions at t + 3/64, ticks at odd multiples of 1/64: the
        # tick at t + 1/64 fires inside the cascade, its successor at
        # t + 3/64 collides — too late to refuse the cascade cleanly.
        stats = assert_modes_agree(
            scenario(
                (3 * 2.0**-6,) * 4, 2.0, (tick("idle", 2.0**-5, 2.0**-6),)
            )
        )
        assert replays == [1, 1, 1, 1]  # t = 0.5 .. 2.0
        assert stats["cascades"] == 0

    def test_tick_turning_live_inside_the_cascade_it_is_crossed_in(
        self, replays
    ):
        # Calendar tick: idle until t = 0.6, which is inside the
        # cascade of the arrival at 0.5 after six idle firings; then it
        # deactivates a replica mid-cascade.
        action = Control(time=0.0, kind="deactivate", a=1, b=0)
        stats = assert_modes_agree(
            scenario(
                (2.0**-4,) * 4,
                2.0,
                (tick("calendar", 2.0**-6, 2.0**-7, 0.6, action),),
            )
        )
        assert replays == [6]
        assert stats["cascades"] > 0

    def test_idle_and_live_event_at_one_instant(self, replays):
        # The idle one was scheduled first, but the live one, a plain
        # heap event, refuses the cascade before any chain is stepped:
        # nothing to replay around.
        pair = (
            tick("idle", 2.0**-3, 2.0**-7),
            tick("live", 2.0**-3, 2.0**-7),
        )
        stats = assert_modes_agree(scenario((2.0**-4,) * 4, 2.0, pair))
        assert replays == []
        assert stats["cascades"] == 0


class TestHorizon:
    def test_until_between_a_crossed_tick_and_the_last_event(self):
        # Cascade 0.5 .. 0.75; ticks from 0.5 + 1/128; until = 0.6.
        stats = assert_modes_agree(
            scenario(
                (2.0**-4,) * 4,
                2.0,
                (tick("idle", 2.0**-6, 2.0**-7),),
                until=0.6,
            )
        )
        assert stats["cascades"] == 0  # the bound is past ``until``

    def test_tick_after_the_last_event_inside_the_guard_margin(self):
        # The cascade of t = 0.5 ends at 0.75; a tick half a microsecond
        # later is still inside its bound, and the run stops right
        # after. The clock must end on the tick, not on the cascade.
        stats = assert_modes_agree(
            scenario(
                (2.0**-4,) * 4,
                2.0,
                (tick("idle", 1.0, 0.75 + 2.0**-21),),
                until=0.75 + 2.0**-19,
            )
        )
        assert stats["cascades"] == 1
        assert stats["ticks_stepped"] == 1


class TestLyingProbe:
    def test_mutating_callback_registered_idle_fails_loudly(
        self, monkeypatch
    ):
        # Sabotage: the calendar tick still claims idle when it acts.
        monkeypatch.setattr(Ticker, "_idle", lambda self, time: True)
        action = Control(time=0.0, kind="deactivate", a=1, b=0)
        liar = scenario(
            (2.0**-6,) * 3,
            4.0,
            (tick("calendar", 0.5, 2.0**-3, 1.0, action),),
        )
        honest, _ = run(liar, batching=False)
        assert honest["error"] is None
        caught, _ = run(liar, batching=True)
        assert "probed idle at t=1.125" in caught["error"]
        assert "Ticker._step" in caught["error"]


class TestSteppedChains:
    """A chain's firing inside a train is a step: applied at its time,
    its one sequence number replayed there, and the chain put back on
    the heap once, when the train ends."""

    def test_chain_stops_at_its_horizon_inside_a_train(self):
        # The fold chain (gaps 1/8, 1/16, ...) stops at its horizon 1.5,
        # half way through the one train; its folded state and the
        # heap it leaves must match the tuple-granular run's.
        fold = tick("fold", 2.0**-4, 2.0**-7, 1.5)
        stats = assert_modes_agree(scenario((2.0**-6,) * 3, 4.0, (fold,)))
        assert stats["runs"] == 1
        assert stats["cascades"] == 9  # t = 0.25 .. 2.25
        assert stats["ticks_stepped"] == 14

    def test_chain_turning_busy_mid_train_ends_it(self, replays):
        # Calendar ticks at odd multiples of 1/128 + k/8: idle until
        # 1.0, then one deactivation. The busy firing lies between two
        # cascades, so the train ends before it with nothing to replay,
        # and the kernel fires it.
        action = Control(time=0.0, kind="deactivate", a=1, b=0)
        stats = assert_modes_agree(
            scenario(
                (2.0**-6,) * 3,
                4.0,
                (tick("calendar", 2.0**-3, 2.0**-7, 1.0, action),),
            )
        )
        assert stats["runs"] == 2
        assert stats["ticks_stepped"] == 15
        assert replays == []

    def test_two_chains_at_the_same_instants_keep_their_order(self):
        # The meter and the autoscaler fire together: between cascades
        # each draws its next number in sequence order, and the two
        # come back on the heap in that order.
        pair = (
            tick("fold", 2.0**-3, 2.0**-7, 2.0),
            tick("idle", 2.0**-3, 2.0**-7),
        )
        stats = assert_modes_agree(scenario((2.0**-6,) * 3, 4.0, pair))
        assert stats["runs"] == 1
        assert stats["ticks_stepped"] == 28

    def test_firing_inside_a_cascade_takes_the_number_it_reached(
        self, replays
    ):
        # Span 3/16 s from each arrival at k/2; ticks at 1/2 + 1/32 +
        # k: inside the cascades of 0.5 and 1.5, after their first
        # completion, before the second.
        ticker = tick("idle", 1.0, 0.5 + 2.0**-5)
        stats = assert_modes_agree(scenario((2.0**-4,) * 3, 2.0, (ticker,)))
        assert stats["cascades"] == 4
        assert stats["ticks_stepped"] == 2
        assert replays == []

    def test_firing_exactly_on_an_arrival_is_refused(self):
        # Ticks every 1/8 s from 1/8, arrivals every 1/4 s: each even
        # firing lands on an arrival whose number was drawn first. The
        # train refuses that arrival, and the kernel runs both.
        ticker = tick("idle", 2.0**-3, 2.0**-3)
        stats = assert_modes_agree(
            scenario((2.0**-6,) * 3, 4.0, (ticker,), until=1.0)
        )
        assert stats["cascades"] == 0
        assert stats["ticks_stepped"] == 0
        assert stats["bails"] == 4  # t = 0.25 .. 1.0

    def test_step_that_draws_a_number_fails_loudly(self, monkeypatch):
        # Sabotage: the fold chain's step also schedules an event, which
        # a callback may do and a step may not.
        step = Ticker._step

        def scheduling_step(self, time):
            self._platform.env.schedule(1.0, lambda: None)
            return step(self, time)

        monkeypatch.setattr(Ticker, "_step", scheduling_step)
        liar = scenario(
            (2.0**-6,) * 3, 4.0, (tick("fold", 2.0**-3, 2.0**-7, 2.0),)
        )
        honest, _ = run(liar, batching=False)
        assert honest["error"] is None
        caught, _ = run(liar, batching=True)
        assert "probed idle at t=0.2578125" in caught["error"]
        assert "scheduling_step" in caught["error"]
