"""Unit and property tests for the input configuration space."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ConfigurationSpace, InputConfiguration, bin_rates
from repro.errors import DescriptorError


def _search(problem) -> tuple:
    """Fabric worker: one in-process search, reduced to what it found."""
    from repro.core.optimizer import ft_search

    result = ft_search(problem, node_limit=None)
    strategy = result.strategy
    return result.best_cost, None if strategy is None else strategy.to_dict()


class TestInputConfiguration:
    def test_rejects_negative_rate(self):
        with pytest.raises(DescriptorError):
            InputConfiguration(0, {"s": -1.0}, 1.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(DescriptorError):
            InputConfiguration(0, {"s": 1.0}, 1.5)

    def test_rate_vector_follows_order(self):
        config = InputConfiguration(0, {"a": 1.0, "b": 2.0}, 1.0)
        assert config.rate_vector(["b", "a"]) == (2.0, 1.0)

    def test_rates_are_frozen(self):
        """Every tenant of a descriptor shares this object: neither the
        stored mapping nor the caller's dict is a way to write it."""
        given_rates = {"a": 1.0}
        config = InputConfiguration(0, given_rates, 1.0)
        with pytest.raises(TypeError):
            config.rates["a"] = 2.0
        with pytest.raises(TypeError):
            del config.rates["a"]
        given_rates["a"] = 2.0
        assert config.rate_of("a") == 1.0

    def test_frozen_rates_pickle_and_serialise(self):
        config = InputConfiguration(1, {"a": 1.0, "b": 2.0}, 0.25, "High")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        with pytest.raises(TypeError):
            clone.rates["a"] = 2.0
        space = ConfigurationSpace.two_level("s", 1.0, 2.0, 0.3)
        assert ConfigurationSpace.from_dict(
            json.loads(json.dumps(space.to_dict()))
        ).to_dict() == space.to_dict()

    def test_frozen_rates_survive_the_worker_pool(self):
        """Searches fanned out over the fabric pickle their problems to
        the workers and come back equal to the in-process ones."""
        from repro.experiments.parallel import run_tasks
        from repro.fleet.store import strategy_key
        from tests.optimizer.test_ftsearch_equivalence import _problem

        problems = [_problem(6, "mid"), _problem(7, "mid")]
        deployment = problems[0].deployment
        key = strategy_key(deployment.descriptor, deployment.hosts, 2, 0.6)
        assert len(key) == 64
        pooled = run_tasks(_search, problems, jobs=2)
        assert pooled == [_search(problem) for problem in problems]


class TestConfigurationSpace:
    def test_two_level_shape(self):
        space = ConfigurationSpace.two_level("s", 4.0, 8.0, 0.8)
        assert len(space) == 2
        low, high = space.by_label("Low"), space.by_label("High")
        assert low.rate_of("s") == 4.0
        assert high.rate_of("s") == 8.0
        assert low.probability == pytest.approx(0.8)
        assert high.probability == pytest.approx(0.2)

    def test_two_level_rejects_inverted_rates(self):
        with pytest.raises(DescriptorError):
            ConfigurationSpace.two_level("s", 8.0, 4.0, 0.8)

    def test_cartesian_product_of_two_sources(self):
        space = ConfigurationSpace.from_source_rates(
            {
                "a": [(1.0, 0.5), (2.0, 0.5)],
                "b": [(10.0, 0.25), (20.0, 0.75)],
            }
        )
        assert len(space) == 4
        total = sum(c.probability for c in space)
        assert total == pytest.approx(1.0)
        # Independence: P(a=1, b=10) = 0.5 * 0.25.
        match = [
            c
            for c in space
            if c.rate_of("a") == 1.0 and c.rate_of("b") == 10.0
        ]
        assert len(match) == 1
        assert match[0].probability == pytest.approx(0.125)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DescriptorError, match="sum to 1"):
            ConfigurationSpace.from_source_rates({"a": [(1.0, 0.5), (2.0, 0.4)]})

    def test_mismatched_sources_rejected(self):
        with pytest.raises(DescriptorError):
            ConfigurationSpace(
                [
                    InputConfiguration(0, {"a": 1.0}, 0.5),
                    InputConfiguration(1, {"b": 1.0}, 0.5),
                ]
            )

    def test_indexes_must_be_sequential(self):
        with pytest.raises(DescriptorError, match="indexes"):
            ConfigurationSpace(
                [
                    InputConfiguration(1, {"a": 1.0}, 0.5),
                    InputConfiguration(0, {"a": 2.0}, 0.5),
                ]
            )

    def test_sorted_by_total_rate_puts_hungry_first(self):
        space = ConfigurationSpace.two_level("s", 4.0, 8.0, 0.8)
        order = space.sorted_by_total_rate()
        assert space[order[0]].rate_of("s") == 8.0

    def test_round_trip(self):
        space = ConfigurationSpace.two_level("s", 4.0, 8.0, 0.8)
        clone = ConfigurationSpace.from_dict(space.to_dict())
        assert clone.to_dict() == space.to_dict()

    def test_unknown_label(self):
        space = ConfigurationSpace.two_level("s", 4.0, 8.0, 0.8)
        with pytest.raises(DescriptorError):
            space.by_label("Medium")

    def test_index_out_of_range(self):
        space = ConfigurationSpace.two_level("s", 4.0, 8.0, 0.8)
        with pytest.raises(DescriptorError):
            space[7]


class TestBinRates:
    def test_single_value_collapses_to_one_bin(self):
        assert bin_rates([3.0, 3.0, 3.0], bins=4) == [(3.0, 1.0)]

    def test_probabilities_sum_to_one(self):
        result = bin_rates([1, 2, 3, 4, 5, 6, 7, 8], bins=4)
        assert sum(p for _, p in result) == pytest.approx(1.0)

    def test_bins_use_upper_edges(self):
        result = bin_rates([0.0, 10.0], bins=2)
        rates = [r for r, _ in result]
        # Upper edges 5.0 and 10.0: a configuration built from a bin never
        # underestimates the load the bin represents.
        assert rates == [5.0, 10.0]

    def test_empty_observations_rejected(self):
        with pytest.raises(DescriptorError):
            bin_rates([], bins=2)

    def test_invalid_bins_rejected(self):
        with pytest.raises(DescriptorError):
            bin_rates([1.0], bins=0)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_property_bins_cover_all_observations(self, observations, bins):
        result = bin_rates(observations, bins)
        assert sum(p for _, p in result) == pytest.approx(1.0)
        # The largest bin edge dominates every observation.
        assert max(r for r, _ in result) >= max(observations) - 1e-9
        # Rates come out sorted.
        rates = [r for r, _ in result]
        assert rates == sorted(rates)
