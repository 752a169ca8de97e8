"""The SLO engine's sorted drain against the sketch it replaced.

A latency window is summarised from one ``sorted()`` of its slice and a
left-fold sum (:func:`repro.obs.sketch.sorted_summary`), not by feeding
a :class:`~repro.obs.sketch.LogHistogram` one sample at a time. The two
must agree bit for bit on every field the ``slo.*`` events and the run
summary carry, for values on, just off and below the bucket grid, and
with duplicates.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.dsps.metrics import LatencyRecorder, RunMetrics
from repro.obs import sketch
from repro.obs.events import EventLog
from repro.obs.sketch import LogHistogram, left_sum, sorted_summary
from repro.obs.slo import AvailabilityTracker, SloConfig, SloEngine

_GRID = LogHistogram()
_MIN = _GRID.min_value
#: Exact bucket bounds, as ``bucket_value`` computes them.
_BOUNDS = [_GRID.bucket_value(k) for k in range(0, 300, 7)]
_ON_AND_OFF_GRID = st.sampled_from(_BOUNDS).flatmap(
    lambda bound: st.sampled_from(
        [
            bound,
            math.nextafter(bound, 0.0),
            math.nextafter(bound, math.inf),
        ]
    )
)
_LATENCIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=_MIN),  # bucket 0
    _ON_AND_OFF_GRID,
    st.floats(min_value=0.0, max_value=10.0),
)
#: Lists with duplicates: a drawn prefix repeated at the end.
_WINDOWS = st.lists(_LATENCIES, max_size=30).flatmap(
    lambda values: st.integers(0, len(values)).map(
        lambda k: values + values[:k]
    )
)
#: Two values in different buckets, so a shifted rank moves p50/p95.
_SPREAD = [_MIN / 2, 1.0]


def _bits(summary: dict) -> dict:
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in summary.items()
    }


def _drain_property(sabotage=nullcontext, **tuning):
    """``sorted_summary`` (under ``sabotage``) reports, bit for bit,
    the count, sum, mean, p50, p95 and max of a default-grid sketch
    fed the same values one by one, in the same order."""

    @given(values=_WINDOWS)
    @example(values=_SPREAD)
    @settings(deadline=None, **tuning)
    def check(values):
        fed = LogHistogram()
        for value in values:
            fed.add(value)
        total = left_sum(values)
        assert total.hex() == fed.sum.hex()
        with sabotage():
            drained = sorted_summary(values, total)
        assert _bits(drained) == _bits(fed.summary())

    return check


def _off_by_one_rank():
    rank = sketch.nearest_rank_index
    return mock.patch.object(
        sketch,
        "nearest_rank_index",
        lambda q, n: min(n - 1, rank(q, n) + 1),
    )


class TestSortedDrain:
    test_matches_a_sketch_fed_one_by_one = staticmethod(_drain_property())

    def test_an_off_by_one_rank_is_caught(self):
        with pytest.raises(AssertionError):
            _drain_property(
                _off_by_one_rank, phases=[Phase.explicit, Phase.generate]
            )()

    @pytest.mark.parametrize("bad", [-1e-9, -0.5, math.nan, math.inf])
    def test_a_bad_value_raises_naming_it(self, bad):
        values = [0.25, bad, 0.5]
        with pytest.raises(ValueError, match=repr(bad)):
            LogHistogram().add(bad)
        with pytest.raises(ValueError, match=repr(bad)):
            sorted_summary(values, left_sum(values))

    def test_the_engine_refuses_a_negative_latency(self):
        engine = SloEngine(
            EventLog(),
            AvailabilityTracker(),
            SloConfig(window=5.0),
            latency=[("sink", ([1.0, 2.0], [0.5, -2.5]))],
        )
        with pytest.raises(ValueError, match="-2.5"):
            engine.finalize(10.0)


def test_float_sums_on_byte_paths_are_left_folds():
    """``[1e16, 1.0, -1e16]`` sums to 0.0 added left to right and to
    1.0 compensated (``math.fsum``; ``sum()`` from Python 3.12)."""
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    assert left_sum(values) == 0.0
    recorder = LatencyRecorder()
    for time, latency in enumerate(values):
        recorder.record(float(time), latency)
    assert recorder.mean() == 0.0
    metrics = RunMetrics(sink_latency={"sink": recorder})
    assert metrics.mean_latency() == 0.0
    assert metrics.mean_latency_in_window(0.0, 3.0) == 0.0
