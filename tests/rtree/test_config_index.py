"""Tests for the HAController configuration lookup (dominance + nearest)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationSpace, InputConfiguration
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, value):
        """Not served by the fallback: its event would carry the value
        into the stream as a token JSON does not have."""
        from repro.obs import Telemetry

        telemetry = Telemetry(clock=lambda: 0.0)
        index = ConfigurationIndex(
            ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8),
            telemetry=telemetry,
        )
        with pytest.raises(RTreeError, match="finite"):
            index.lookup({"src": value})
        assert index.fallbacks == 0
        assert len(telemetry.events) == 0


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
        a=st.floats(min_value=0.0, max_value=7.0),
        b=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_property_never_underestimates(self, a, b):
        """Whenever some configuration dominates the measurement, the
        lookup result dominates it too (the paper's guarantee)."""
        index, space = self.build_index()
        rates = {"a": a, "b": b}

        def distance(config):
            return math.dist(config.rate_vector(("a", "b")), (a, b))

        dominating = [
            c for c in space if c.rates["a"] >= a and c.rates["b"] >= b
        ]
        config = index.lookup(rates)
        if dominating:
            assert config in dominating
            # And it is the *nearest* dominating configuration.
            best = min(dominating, key=distance)
            assert distance(config) == pytest.approx(distance(best))


def _nearest_covering_level(levels, measured, tolerance):
    """One source's part of the selection rule, worked out alone: the
    covering level (``level * (1 + tolerance) >= measured``) nearest to
    ``measured``, the lower level on a tie; None when none covers.

    With ``tolerance = 0`` that is the ceiling, the smallest covering
    level. With a tolerance a level below the measurement can cover it,
    and the next level up may still be nearer (``TestTieBreaking``).
    """
    covering = [
        level for level in levels if level * (1 + tolerance) >= measured
    ]
    return min(
        covering, key=lambda level: abs(level - measured), default=None
    )


@st.composite
def cartesian_lookups(draw):
    """A 1-3 source x 1-4 level Cartesian space (up to 64 configurations,
    more than one 8-entry R-tree leaf holds), a tolerance and a
    measurement.

    Levels are integers and measurements quarters, so every distance the
    index computes is exact and an exact tie is a real tie.
    """
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    levels = {
        name: sorted(
            draw(
                st.sets(st.integers(1, 100), min_size=1, max_size=4)
            )
        )
        for name in names
    }
    tolerance = draw(
        st.sampled_from([0.0, 0.05, 0.2]) | st.floats(0.0, 0.5)
    )
    measured = {
        name: draw(st.integers(0, 4 * 110)) / 4 for name in names
    }
    return levels, tolerance, measured


class TestCartesianSelection:
    @settings(max_examples=150, deadline=None)
    @given(cartesian_lookups())
    def test_selects_each_sources_nearest_covering_level(self, drawn):
        levels, tolerance, measured = drawn
        space = ConfigurationSpace.from_source_rates(
            {
                name: [(float(level), 1 / len(rates)) for level in rates]
                for name, rates in levels.items()
            }
        )
        index = ConfigurationIndex(space, tolerance=tolerance)
        config = index.lookup(measured)
        expected = {
            name: _nearest_covering_level(rates, measured[name], tolerance)
            for name, rates in levels.items()
        }
        if None in expected.values():
            # Some source exceeds every level: the most hungry fallback.
            expected = {name: rates[-1] for name, rates in levels.items()}
            assert index.fallbacks == 1
        else:
            assert index.fallbacks == 0
        assert dict(config.rates) == expected


class TestTieBreaking:
    def test_exact_tie_resolves_to_lowest_index(self):
        """(1, 1) is at distance 2 from both (3, 1) and (1, 3). The
        lower index wins, although (1, 3) comes first along ``a``."""
        space = ConfigurationSpace(
            [
                InputConfiguration(0, {"a": 3.0, "b": 1.0}, 0.25),
                InputConfiguration(1, {"a": 1.0, "b": 3.0}, 0.25),
                InputConfiguration(2, {"a": 0.5, "b": 0.5}, 0.25),
                InputConfiguration(3, {"a": 5.0, "b": 5.0}, 0.25),
            ]
        )
        index = ConfigurationIndex(space)
        assert index.lookup_index({"a": 1.0, "b": 1.0}) == 0
        assert index.fallbacks == 0

    def test_tolerance_prefers_the_nearer_covering_level(self):
        """At 10 t/s with 50 % tolerance both 7 (7 * 1.5 >= 10) and 10
        cover the measurement; 10 is nearer, so it is not the ceiling
        level 7 that is chosen."""
        space = ConfigurationSpace.two_level("src", 7.0, 10.0, 0.5)
        index = ConfigurationIndex(space, tolerance=0.5)
        assert index.lookup({"src": 10.0}).rates["src"] == 10.0
        assert index.lookup({"src": 8.0}).rates["src"] == 7.0


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
