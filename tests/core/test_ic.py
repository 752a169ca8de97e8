"""Tests for the internal completeness metric (Eq. 5-8)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivationStrategy,
    ReplicaId,
    best_case_internal_completeness,
    failure_aware_rates,
    internal_completeness,
    pessimistic_phi,
)
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
        space = diamond_deployment.descriptor.configuration_space
        fic = [
            failure_aware_rates(
                diamond_deployment, c, pessimistic_phi(strategy, c)
            )[1]
            for c in range(2)
        ]
        assert fic[1] == 0.0
        bic = best_case_internal_completeness(diamond_deployment.descriptor)
        assert internal_completeness(strategy) == pytest.approx(
            space[0].probability * fic[0] / bic
        )

    def test_failure_aware_rates_zero_downstream(self, diamond_deployment):
        strategy = partial_strategy(diamond_deployment, ["a"])
        high, _ = failure_aware_rates(
            diamond_deployment, 1, pessimistic_phi(strategy, 1)
        )
        assert high["a"] == 0.0
        assert high["b"] == 0.0
        assert high["d"] == 0.0
        # Low configuration untouched.
        low, _ = failure_aware_rates(
            diamond_deployment, 0, pessimistic_phi(strategy, 0)
        )
        assert low["a"] == pytest.approx(5.0)


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
        descriptor = pipeline_deployment.descriptor
        rate_table = descriptor.rate_table
        for c in range(len(descriptor.configuration_space)):
            _, fic = failure_aware_rates(
                pipeline_deployment, c, pessimistic_phi(strategy, c)
            )
            assert fic == pytest.approx(rate_table.total_pe_input_rate(c))
