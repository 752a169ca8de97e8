"""Consistency of the IC machinery: the metric, the judge and FT-Search.

The per-configuration FIC rates of :func:`repro.core.failure_aware_rates`
must add up to the IC metric, and the floors the run-time judge
(:class:`repro.obs.replay.FloorWalker`) holds a run to must add up to
the IC FT-Search proved for the strategy: a judge that reads a different
FIC than the search optimized holds runs to a bound nobody proved.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs.replay
from repro.core import (
    ActivationStrategy,
    OptimizationProblem,
    ReplicaId,
    best_case_internal_completeness,
    failure_aware_rates,
    ft_search,
    internal_completeness,
    pessimistic_phi,
)
from repro.obs.replay import FloorWalker
from tests.support import random_deployment, random_descriptor

#: A drawn instance on which summing each PE's selectivity-weighted
#: output instead of its input (Eq. 6) puts the judge's floors at IC
#: 0.233 under a proven 0.301 and a 0.3 contract.
WEIGHTED_SUM_BREAKS = 12


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


def per_config_rates(strategy):
    """``(P_C(c), FIC rate, BIC rate)`` of every configuration."""
    deployment = strategy.deployment
    rate_table = deployment.descriptor.rate_table
    rows = []
    for config in deployment.descriptor.configuration_space:
        c = config.index
        phi = pessimistic_phi(strategy, c)
        _, fic = failure_aware_rates(deployment, c, phi)
        bic = rate_table.total_pe_input_rate(c)
        rows.append((config.probability, fic, bic))
    return rows


def searched(seed):
    """FT-Search on a drawn instance: 2-7 PEs, 1-3 configurations, and
    selectivities from U(0.5, 1.5) as in the paper's generator."""
    rng = random.Random(seed)
    descriptor = random_descriptor(
        rng, n_pes=rng.randint(2, 7), n_configs=rng.randint(1, 3)
    )
    deployment = random_deployment(rng, descriptor)
    target = rng.choice([0.0, 0.3, 0.5, 0.7])
    problem = OptimizationProblem(deployment, ic_target=target)
    return deployment, ft_search(problem, node_limit=20_000)


def assert_judge_holds_the_proven_bound(seed):
    deployment, result = searched(seed)
    if result.strategy is None:  # nothing proven, nothing to judge
        return
    descriptor = deployment.descriptor
    graph = descriptor.graph
    assert any(
        descriptor.selectivity(edge.tail, pe) != 1.0
        for pe in graph.pes
        for edge in graph.pe_input_edges(pe)
    )
    strategy = result.strategy
    walker = FloorWalker(deployment, strategy, strategy)
    floors_ic = sum(
        config.probability * walker.floors[config.index]
        for config in descriptor.configuration_space
    ) / best_case_internal_completeness(descriptor)
    assert floors_ic == pytest.approx(result.best_ic, rel=0, abs=1e-9)
    assert internal_completeness(strategy) == pytest.approx(
        result.best_ic, rel=0, abs=1e-9
    )


def selectivity_weighted_rates(deployment, config_index, phi):
    """Mutant: FIC sums each PE's selectivity-weighted output."""
    rates, _ = failure_aware_rates(deployment, config_index, phi)
    return rates, sum(rates[pe] for pe in deployment.descriptor.graph.pes)


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_breakdown_sums_match_direct_functions(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        strategy = random_strategy(rng, deployment)

        rows = per_config_rates(strategy)
        bic = best_case_internal_completeness(descriptor)
        assert sum(p * b for p, _, b in rows) == pytest.approx(bic)
        assert sum(p * f for p, f, _ in rows) / bic == pytest.approx(
            internal_completeness(strategy)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_per_config_fic_never_exceeds_bic(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        strategy = random_strategy(rng, deployment)
        for _, fic_c, bic_c in per_config_rates(strategy):
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
        )
        assert result.strategy is not None
        assert internal_completeness(result.strategy) == pytest.approx(
            result.best_ic
        )


class TestJudgeHoldsTheProvenBound:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_walker_floors_add_up_to_the_proven_ic(self, seed):
        assert_judge_holds_the_proven_bound(seed)

    def test_selectivity_weighted_fic_fails_the_property(self, monkeypatch):
        assert_judge_holds_the_proven_bound(WEIGHTED_SUM_BREAKS)
        monkeypatch.setattr(
            repro.obs.replay, "failure_aware_rates", selectivity_weighted_rates
        )
        with pytest.raises(AssertionError):
            assert_judge_holds_the_proven_bound(WEIGHTED_SUM_BREAKS)
