"""Pinned edge cases of crossing idle heap events in closed form.

``test_generated_equivalence.py`` draws these situations at random;
here each is built by hand on dyadic numbers (exact float arithmetic),
so the suite exercises every branch of the crossing on every run and
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
    """Counts tuple-granular replays around already-fired idle events."""
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
        assert stats["idle_crossed"] == 1  # t = 1.125, between two runs

    def test_step_completion_exactly_on_a_tick_takes_the_exact_path(self):
        # Ticks at 1/32 + k/2: on the first completion (t + 1/32) of
        # the cascades at t = 0.5, 1.0, 1.5, 2.0. The arrivals in
        # between commit in closed form; 2.5 is the horizon.
        stats = assert_modes_agree(
            scenario((2.0**-5,) * 2, 4.0, (tick("idle", 0.5, 2.0**-5),))
        )
        assert stats["cascades"] == 5
        assert stats["bails"] == 5
        assert stats["idle_crossed"] == 0


class TestInsideOneCascade:
    def test_tick_period_shorter_than_the_cascade_span(self, replays):
        # Span 1/4 s, ticks every 1/64 s offset by 1/128 s: sixteen
        # firings inside each cascade, none on a completion.
        stats = assert_modes_agree(
            scenario((2.0**-4,) * 4, 2.0, (tick("idle", 2.0**-6, 2.0**-7),))
        )
        assert stats["runs"] == 1
        assert stats["cascades"] == 4  # t = 0.5 .. 2.0; 2.5 is the horizon
        assert stats["idle_crossed"] == 7 * 16  # 0.5 .. 2.25
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
        assert stats["idle_crossed"] == 2 * 14
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
        # The idle one was scheduled first, so it is probed (and fired)
        # first; the live one behind it refuses the cascade.
        pair = (
            tick("idle", 2.0**-3, 2.0**-7),
            tick("live", 2.0**-3, 2.0**-7),
        )
        assert_modes_agree(scenario((2.0**-4,) * 4, 2.0, pair))
        assert replays == [1, 1, 1, 1]


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
        assert stats["idle_crossed"] == 1


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
        assert "Ticker._fire" in caught["error"]
