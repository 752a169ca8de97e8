"""Tests for the internal completeness metric (Eq. 5-8)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivationStrategy,
    IndependentFailureModel,
    NoFailureModel,
    PessimisticFailureModel,
    ReplicaId,
    best_case_internal_completeness,
    failure_aware_rates,
    failure_internal_completeness,
    ic_breakdown,
    internal_completeness,
)
from repro.errors import ModelError
from tests.support import random_deployment, random_descriptor


def partial_strategy(deployment, single_in_high):
    """All-active except the PEs in ``single_in_high`` which keep only
    replica 0 in the High configuration (index 1)."""
    activations = {
        (replica, c): True
        for replica in deployment.replicas
        for c in range(2)
    }
    for pe in single_in_high:
        activations[(ReplicaId(pe, 1), 1)] = False
    return ActivationStrategy(deployment, activations)


class TestBIC:
    def test_pipeline_bic(self, pipeline_descriptor):
        # Low: pe1 and pe2 each receive 4 t/s, p=0.8 -> 6.4.
        # High: each receives 8 t/s, p=0.2 -> 3.2. Total 9.6 per second.
        bic = best_case_internal_completeness(pipeline_descriptor)
        assert bic == pytest.approx(9.6)

    def test_bic_scales_with_billing_period(self, pipeline_descriptor):
        one = best_case_internal_completeness(pipeline_descriptor, 1.0)
        many = best_case_internal_completeness(pipeline_descriptor, 300.0)
        assert many == pytest.approx(300.0 * one)

    def test_bic_rejects_bad_period(self, pipeline_descriptor):
        with pytest.raises(ModelError):
            best_case_internal_completeness(pipeline_descriptor, 0.0)


class TestPessimisticIC:
    def test_all_active_has_ic_one(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        assert internal_completeness(strategy) == pytest.approx(1.0)

    def test_pipeline_partial_matches_hand_computation(
        self, pipeline_deployment
    ):
        # pe2 single in High: loses pe2's High contribution (0.2 * 8) from
        # FIC: (9.6 - 1.6) / 9.6.
        strategy = partial_strategy(pipeline_deployment, ["pe2"])
        assert internal_completeness(strategy) == pytest.approx(8.0 / 9.6)

    def test_upstream_kill_cascades(self, pipeline_deployment):
        # pe1 single in High: pe1 contributes 0 there AND starves pe2.
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        assert internal_completeness(strategy) == pytest.approx(6.4 / 9.6)

    def test_diamond_cascade(self, diamond_deployment):
        # Killing "a" in High zeroes the whole High configuration:
        # IC = P(Low) contribution only.
        strategy = partial_strategy(diamond_deployment, ["a"])
        breakdown = ic_breakdown(strategy)
        fic_high, bic_high = breakdown.per_config[1]
        assert fic_high == 0.0
        assert breakdown.ic == pytest.approx(
            sum(f for f, _ in breakdown.per_config.values()) / breakdown.bic
        )

    def test_failure_aware_rates_zero_downstream(self, diamond_deployment):
        strategy = partial_strategy(diamond_deployment, ["a"])
        delta_hat = failure_aware_rates(strategy, PessimisticFailureModel())
        assert delta_hat["a"][1] == 0.0
        assert delta_hat["b"][1] == 0.0
        assert delta_hat["d"][1] == 0.0
        # Low configuration untouched.
        assert delta_hat["a"][0] == pytest.approx(5.0)


class TestOtherFailureModels:
    def test_no_failure_model_gives_ic_one(self, pipeline_deployment):
        strategy = partial_strategy(pipeline_deployment, ["pe1", "pe2"])
        ic = internal_completeness(strategy, NoFailureModel())
        assert ic == pytest.approx(1.0)

    def test_independent_model_bounds(self, pipeline_deployment):
        strategy = partial_strategy(pipeline_deployment, ["pe2"])
        for availability in (0.0, 0.5, 0.9, 1.0):
            independent = internal_completeness(
                strategy, IndependentFailureModel(availability)
            )
            assert 0.0 <= independent <= 1.0 + 1e-12

    def test_independent_model_extremes(self, pipeline_deployment):
        strategy = partial_strategy(pipeline_deployment, ["pe2"])
        # Perfectly available replicas behave like the no-failure case;
        # never-available replicas process nothing.
        assert internal_completeness(
            strategy, IndependentFailureModel(1.0)
        ) == pytest.approx(
            internal_completeness(strategy, NoFailureModel())
        )
        assert internal_completeness(
            strategy, IndependentFailureModel(0.0)
        ) == pytest.approx(0.0)

    def test_independent_model_monotone_in_availability(
        self, pipeline_deployment
    ):
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        values = [
            internal_completeness(strategy, IndependentFailureModel(a))
            for a in (0.1, 0.5, 0.9)
        ]
        assert values == sorted(values)

    def test_independent_model_rejects_bad_availability(self):
        with pytest.raises(ModelError):
            IndependentFailureModel(1.5)


class TestICProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_ic_in_unit_interval(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        # Random strategy obeying Eq. 12.
        activations = {}
        for pe in descriptor.graph.pes:
            for c in range(len(descriptor.configuration_space)):
                value = rng.choice(
                    [(True, True), (True, False), (False, True)]
                )
                activations[(ReplicaId(pe, 0), c)] = value[0]
                activations[(ReplicaId(pe, 1), c)] = value[1]
        strategy = ActivationStrategy(deployment, activations)
        ic = internal_completeness(strategy)
        assert 0.0 <= ic <= 1.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_deactivation_never_increases_ic(self, seed):
        """Monotonicity: flipping one replica from active to inactive can
        only reduce (pessimistic) IC."""
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=4)
        deployment = random_deployment(rng, descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        ic_before = internal_completeness(strategy)
        pe = rng.choice(descriptor.graph.pes)
        c = rng.randrange(len(descriptor.configuration_space))
        reduced = strategy.replace({(ReplicaId(pe, 1), c): False})
        ic_after = internal_completeness(reduced)
        assert ic_after <= ic_before + 1e-9

    def test_fic_equals_bic_when_all_active(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        fic = failure_internal_completeness(strategy)
        bic = best_case_internal_completeness(pipeline_deployment.descriptor)
        assert fic == pytest.approx(bic)
