"""The deterministic log-histogram sketch and nearest-rank semantics."""

from __future__ import annotations

import math

import pytest

from repro.obs import LogHistogram, nearest_rank_index


def _exact_nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank_index(q, len(ordered))]


class TestNearestRankIndex:
    def test_bounds(self):
        assert nearest_rank_index(0.0, 5) == 0
        assert nearest_rank_index(1.0, 5) == 4

    def test_median_of_four_is_second_element(self):
        # ceil(0.5 * 4) - 1 = 1: nearest-rank picks a real sample, not
        # an interpolated midpoint.
        assert nearest_rank_index(0.5, 4) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            nearest_rank_index(1.5, 4)
        with pytest.raises(ValueError):
            nearest_rank_index(0.5, 0)


class TestLogHistogram:
    def test_empty(self):
        sketch = LogHistogram()
        assert sketch.percentile(0.5) == 0.0
        assert sketch.summary() == {
            "count": 0, "mean": None, "p50": None, "p95": None, "max": None,
        }

    def test_exact_scalars(self):
        sketch = LogHistogram()
        for value in (0.25, 0.5, 0.125, 2.0):
            sketch.add(value)
        summary = sketch.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.875 / 4)
        assert summary["max"] == 2.0

    @pytest.mark.parametrize(
        "values",
        [
            # Uniform spread over three decades.
            [0.001 * (i + 1) for i in range(500)],
            # Heavy-tailed: most mass tiny, a few huge outliers.
            [0.0001] * 400 + [5.0, 50.0, 500.0],
            # Adversarial for fixed-width buckets: geometric spacing.
            [2.0 ** (-i) for i in range(30)] * 4,
            # All-identical values (single-bucket degenerate case).
            [0.042] * 100,
        ],
    )
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.95, 0.99, 1.0])
    def test_relative_error_bound(self, values, q):
        growth = 1.05
        sketch = LogHistogram(growth=growth)
        for value in values:
            sketch.add(value)
        exact = _exact_nearest_rank(values, q)
        approx = sketch.percentile(q)
        # One-sided bucket rounding: the sketch returns the bucket's
        # upper bound (clamped to observed min/max), so the relative
        # error is bounded by the growth factor — except below the
        # grid floor, where the absolute error is at most min_value.
        assert approx >= exact * (1.0 - 1e-12)
        ceiling = max(exact * growth, sketch.min_value)
        assert approx <= ceiling * (1.0 + 1e-12)

    def test_below_min_value_clamps_to_first_bucket(self):
        sketch = LogHistogram(min_value=1e-6)
        sketch.add(1e-9)
        sketch.add(0.0 + 1e-12)
        assert sketch.percentile(1.0) <= 1e-6 + 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LogHistogram().add(0.5, count=0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, -1.0], ids=repr
    )
    def test_refuses_a_value_that_is_not_finite_and_non_negative(
        self, value
    ):
        sketch = LogHistogram()
        with pytest.raises(ValueError, match=repr(value)):
            sketch.add(value)
        assert sketch.summary()["count"] == 0
