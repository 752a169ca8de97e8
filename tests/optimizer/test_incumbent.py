"""Tests for greedy incumbent seeding in FT-Search."""

from __future__ import annotations

import pytest

from repro.core import (
    OptimizationProblem,
    SearchOutcome,
    ft_search,
    greedy_deactivation,
    internal_completeness,
    strategy_cost,
)
from repro.workloads import generate_application


#: A short search on the hard app: far below the ~8 k nodes the 0.9
#: target needs to prove NUL and the millions IC 0.4 needs to exhaust.
BUDGET = 2000


@pytest.fixture(scope="module")
def hard_app():
    """Seed 77 is the motivating instance: without seeding, no feasible
    solution is found within a short budget (deep CPU-conflict thrash)."""
    return generate_application(seed=77)


class TestSeeding:
    def test_unseeded_search_times_out_empty(self, hard_app):
        """The block engine and the oracle are both still empty-handed
        at ten times this budget."""
        result = ft_search(
            OptimizationProblem(hard_app.deployment, ic_target=0.4),
            node_limit=BUDGET,
        )
        assert result.outcome is SearchOutcome.TIMEOUT
        assert result.strategy is None

    def test_seeded_search_returns_the_incumbent(self, hard_app):
        result = ft_search(
            OptimizationProblem(hard_app.deployment, ic_target=0.4),
            node_limit=BUDGET,
            seed_incumbent=True,
        )
        assert result.outcome is SearchOutcome.FEASIBLE
        assert result.strategy is not None
        greedy = greedy_deactivation(hard_app.deployment)
        assert result.best_cost <= strategy_cost(greedy) * (1 + 1e-9)
        assert internal_completeness(result.strategy) >= 0.4 - 1e-9

    def test_seed_skipped_when_greedy_misses_target(self, hard_app):
        """GRD's IC on this app is ~0.51; a 0.9 target gets no seed and
        the short search stays empty-handed (TMO) or proves NUL."""
        result = ft_search(
            OptimizationProblem(hard_app.deployment, ic_target=0.9),
            node_limit=BUDGET,
            seed_incumbent=True,
        )
        assert result.outcome in (
            SearchOutcome.TIMEOUT,
            SearchOutcome.INFEASIBLE,
        )

    def test_seeding_never_worsens_the_optimum(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.5)
        plain = ft_search(problem)
        seeded = ft_search(problem, seed_incumbent=True)
        assert plain.outcome is SearchOutcome.OPTIMAL
        assert seeded.outcome is SearchOutcome.OPTIMAL
        assert seeded.best_cost == pytest.approx(plain.best_cost)

    def test_seeded_incumbent_enables_cost_pruning(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.5)
        plain = ft_search(problem)
        seeded = ft_search(problem, seed_incumbent=True)
        assert seeded.stats.values_tried <= plain.stats.values_tried
