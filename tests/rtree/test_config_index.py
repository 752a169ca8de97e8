"""Tests for the HAController configuration lookup (dominance + nearest)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationSpace
from repro.errors import RTreeError
from repro.rtree import ConfigurationIndex


@pytest.fixture
def two_level_index():
    space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8)
    return ConfigurationIndex(space)


class TestTwoLevelLookup:
    def test_below_low_selects_low(self, two_level_index):
        assert two_level_index.lookup({"src": 2.0}).label == "Low"

    def test_exactly_low_selects_low(self, two_level_index):
        assert two_level_index.lookup({"src": 4.0}).label == "Low"

    def test_between_selects_high(self, two_level_index):
        # 5 t/s exceeds Low: choosing Low would underestimate the load.
        assert two_level_index.lookup({"src": 5.0}).label == "High"

    def test_above_high_falls_back_to_high(self, two_level_index):
        assert two_level_index.lookup({"src": 11.0}).label == "High"

    def test_missing_source_rejected(self, two_level_index):
        with pytest.raises(RTreeError, match="no measured rate"):
            two_level_index.lookup({})

    def test_negative_rate_rejected(self, two_level_index):
        with pytest.raises(RTreeError, match=">= 0"):
            two_level_index.lookup({"src": -1.0})


class TestMultiSourceLookup:
    def build_index(self):
        space = ConfigurationSpace.from_source_rates(
            {
                "a": [(2.0, 0.5), (6.0, 0.5)],
                "b": [(3.0, 0.5), (9.0, 0.5)],
            }
        )
        return ConfigurationIndex(space), space

    def test_dominance_is_componentwise(self):
        index, _ = self.build_index()
        # a=1 fits the a=2 level, but b=5 needs the b=9 level.
        config = index.lookup({"a": 1.0, "b": 5.0})
        assert config.rates == {"a": 2.0, "b": 9.0}

    def test_nearest_among_dominating(self):
        index, _ = self.build_index()
        # (5.5, 2.0) is dominated by (6,3) at distance ~1.1 and by (6,9)
        # much farther: the index picks the closest dominating corner.
        config = index.lookup({"a": 5.5, "b": 2.0})
        assert config.rates == {"a": 6.0, "b": 3.0}

    def test_fallback_is_most_hungry(self):
        index, space = self.build_index()
        config = index.lookup({"a": 100.0, "b": 100.0})
        assert config.rates == {"a": 6.0, "b": 9.0}

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        a=st.floats(min_value=0.0, max_value=7.0),
        b=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_property_never_underestimates(self, seed, a, b):
        """Whenever some configuration dominates the measurement, the
        lookup result dominates it too (the paper's guarantee)."""
        index, space = self.build_index()
        rates = {"a": a, "b": b}
        dominating = [c for c in space if c.dominates(rates)]
        config = index.lookup(rates)
        if dominating:
            assert config.dominates(rates)
            # And it is the *nearest* dominating configuration.
            best = min(dominating, key=lambda c: c.distance_to(rates))
            assert config.distance_to(rates) == pytest.approx(
                best.distance_to(rates)
            )


class TestFallbackTelemetry:
    """The out-of-contract fallback is the re-planner's trigger signal:
    it must be observable, not silent."""

    def build(self):
        from repro.obs import Telemetry

        space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8)
        telemetry = Telemetry(clock=lambda: 42.0)
        index = ConfigurationIndex(space, telemetry=telemetry)
        return index, telemetry

    def test_fallback_emits_event_and_counter(self):
        index, telemetry = self.build()
        config = index.lookup({"src": 11.0})
        assert config.label == "High"
        events = telemetry.events.of_type("config.fallback")
        assert len(events) == 1
        event = events[0]
        assert event.time == 42.0
        assert event.fields["config"] == config.index
        assert event.fields["rates"] == {"src": 11.0}
        assert index.fallbacks == 1

    def test_in_contract_lookup_is_silent(self):
        index, telemetry = self.build()
        index.lookup({"src": 3.0})
        index.lookup({"src": 7.5})
        assert telemetry.events.count("config.fallback") == 0
        assert index.fallbacks == 0

    def test_fallback_counts_without_telemetry(self):
        space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8)
        index = ConfigurationIndex(space)
        index.lookup({"src": 100.0})
        index.lookup({"src": 100.0})
        assert index.fallbacks == 2

    def test_fallback_event_validates_against_schema(self):
        from repro.obs.validate import validate_lines

        index, telemetry = self.build()
        index.lookup({"src": 11.0})
        lines = telemetry.events.to_jsonl().splitlines()
        assert validate_lines(lines, origin="<test>") == []
