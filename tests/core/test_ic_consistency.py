"""Consistency of the IC machinery: breakdown vs direct functions.

The incremental FT-Search bookkeeping, the direct FIC/BIC functions, and
the per-configuration breakdown must all agree on any strategy.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivationStrategy,
    ReplicaId,
    best_case_internal_completeness,
    failure_internal_completeness,
    ic_breakdown,
    internal_completeness,
)
from tests.support import random_deployment, random_descriptor


def random_strategy(rng, deployment):
    values = [(True, True), (True, False), (False, True)]
    activations = {}
    n_configs = len(deployment.descriptor.configuration_space)
    for pe in deployment.descriptor.graph.pes:
        for c in range(n_configs):
            a0, a1 = rng.choice(values)
            activations[(ReplicaId(pe, 0), c)] = a0
            activations[(ReplicaId(pe, 1), c)] = a1
    return ActivationStrategy(deployment, activations)


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_breakdown_sums_match_direct_functions(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        strategy = random_strategy(rng, deployment)

        breakdown = ic_breakdown(strategy)
        fic = failure_internal_completeness(strategy)
        bic = best_case_internal_completeness(descriptor)
        ic = internal_completeness(strategy)

        assert breakdown.fic == pytest.approx(fic)
        assert breakdown.bic == pytest.approx(bic)
        assert breakdown.ic == pytest.approx(ic)
        assert sum(f for f, _ in breakdown.per_config.values()) == (
            pytest.approx(fic)
        )
        assert sum(b for _, b in breakdown.per_config.values()) == (
            pytest.approx(bic)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_per_config_fic_never_exceeds_bic(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        strategy = random_strategy(rng, deployment)
        breakdown = ic_breakdown(strategy)
        for fic_c, bic_c in breakdown.per_config.values():
            assert 0.0 <= fic_c <= bic_c + 1e-9

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_ftsearch_reported_ic_matches_reference(
        self, pipeline_deployment, seed
    ):
        """Whatever strategy FT-Search returns, its reported IC equals
        the reference implementation's value."""
        from repro.core import OptimizationProblem, ft_search

        rng = random.Random(seed)
        target = rng.choice([0.3, 0.5, 0.66])
        result = ft_search(
            OptimizationProblem(pipeline_deployment, ic_target=target),
            time_limit=30.0,
        )
        assert result.strategy is not None
        assert internal_completeness(result.strategy) == pytest.approx(
            result.best_ic
        )
