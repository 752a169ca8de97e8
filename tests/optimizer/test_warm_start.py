"""Warm-started FT-Search: correctness and acceleration guarantees.

The control plane's re-planner re-runs FT-Search with the tenant's
current strategy installed as the initial incumbent (``warm_start``).
The contract, asserted here over the equivalence-suite instances for
BOTH engines:

* a warm-started search returns the *same* optimal cost, IC and strategy
  as a cold search (the incumbent only tightens the COST bound, it never
  changes what is optimal);
* it expands at most as many nodes as the cold search;
* the two engines, warm-started alike, return the same optimum — also
  on top of the greedy seed;
* an incumbent that is infeasible for the new problem (IC below target,
  or hosts over capacity) is ignored rather than trusted — trusting it
  would make the bound unsound.
"""

from __future__ import annotations

import random

import pytest

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    ReferenceFTSearch,
    SearchOutcome,
    VectorFTSearch,
    ft_search,
)
from repro.core.strategy import ActivationStrategy
from tests.optimizer.test_ftsearch_equivalence import (
    _activation_matrix,
    _problem,
    assert_equivalent,
    assert_same_optimum,
)
from tests.support import random_deployment, random_descriptor

SEEDS = sorted({*range(0, 50, 3), 11, 22, 44})


def _cold(problem):
    return VectorFTSearch(problem, FTSearchConfig(node_limit=None)).run()


class TestWarmEqualsCold:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_from_own_optimum_fast(self, seed):
        problem = _problem(seed)
        cold = _cold(problem)
        if cold.strategy is None:
            pytest.skip("instance infeasible")
        warm = VectorFTSearch(
            problem,
            FTSearchConfig(node_limit=None, warm_start=cold.strategy),
        ).run()
        assert warm.outcome is SearchOutcome.OPTIMAL
        assert_same_optimum(warm, cold)
        assert warm.stats.nodes_expanded <= cold.stats.nodes_expanded

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_from_own_optimum_reference(self, seed):
        problem = _problem(seed)
        cold = ReferenceFTSearch(
            problem, FTSearchConfig(node_limit=None)
        ).run()
        if cold.strategy is None:
            pytest.skip("instance infeasible")
        warm = ReferenceFTSearch(
            problem,
            FTSearchConfig(node_limit=None, warm_start=cold.strategy),
        ).run()
        assert warm.outcome is SearchOutcome.OPTIMAL
        assert_same_optimum(warm, cold)
        assert warm.stats.nodes_expanded <= cold.stats.nodes_expanded

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_from_all_active_matches_cold(self, seed):
        """A suboptimal (maximal-replication) incumbent still converges
        to the cold optimum, strategy included."""
        problem = _problem(seed)
        cold = _cold(problem)
        warm_seed = ActivationStrategy.all_active(problem.deployment)
        warm = VectorFTSearch(
            problem,
            FTSearchConfig(node_limit=None, warm_start=warm_seed),
        ).run()
        assert_same_optimum(warm, cold)
        assert warm.stats.nodes_expanded <= cold.stats.nodes_expanded


class TestEngineEquivalenceWarm:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_engines_bit_identical_with_warm_start(self, seed):
        """Both engines, warm-started with the same incumbent, return
        the same outcome, cost, IC and strategy."""
        problem = _problem(seed)
        cold = _cold(problem)
        if cold.strategy is None:
            pytest.skip("instance infeasible")
        config = FTSearchConfig(node_limit=None, warm_start=cold.strategy)
        assert_equivalent(problem, config)

    @pytest.mark.parametrize("seed", range(0, 50, 11))
    def test_engines_bit_identical_warm_plus_greedy(self, seed):
        problem = _problem(seed)
        cold = _cold(problem)
        if cold.strategy is None:
            pytest.skip("instance infeasible")
        config = FTSearchConfig(
            node_limit=None,
            warm_start=cold.strategy,
            seed_incumbent=True,
        )
        assert_equivalent(problem, config)


class TestUnusableWarmStartsIgnored:
    def _feasible_problem(self):
        for seed in range(50):
            problem = _problem(seed)
            cold = _cold(problem)
            if cold.strategy is not None:
                return problem, cold
        raise AssertionError("no feasible instance in suite")

    def test_foreign_shape_ignored(self):
        """A strategy from a structurally different application must not
        poison the search — it is silently skipped."""
        problem, cold = self._feasible_problem()
        rng = random.Random(987)
        other_desc = random_descriptor(rng, n_pes=7, n_configs=2)
        other_dep = random_deployment(rng, other_desc, n_hosts=3)
        foreign = ActivationStrategy.all_active(other_dep)
        warm = VectorFTSearch(
            problem, FTSearchConfig(node_limit=None, warm_start=foreign)
        ).run()
        assert warm.best_cost == cold.best_cost
        assert _activation_matrix(warm.strategy) == _activation_matrix(
            cold.strategy
        )

    def test_infeasible_ic_incumbent_ignored(self):
        """An incumbent below the IC target would make the bound unsound;
        the search must behave exactly like a cold run instead."""
        for seed in range(50):
            problem = _problem(seed)
            cold = _cold(problem)
            if cold.strategy is None or cold.best_ic >= 1.0:
                continue
            # Raise the target above what the old strategy guarantees.
            harder = OptimizationProblem(
                problem.deployment,
                ic_target=min(1.0, cold.best_ic + 0.05),
            )
            cold_hard = _cold(harder)
            warm_hard = VectorFTSearch(
                harder,
                FTSearchConfig(node_limit=None, warm_start=cold.strategy),
            ).run()
            assert warm_hard.outcome is cold_hard.outcome
            assert warm_hard.best_cost == cold_hard.best_cost
            assert warm_hard.stats.nodes_expanded == (
                cold_hard.stats.nodes_expanded
            )
            return
        pytest.skip("no feasible instance in suite")

    def test_wrapper_threads_warm_start(self):
        problem, cold = self._feasible_problem()
        result = ft_search(problem, node_limit=None, warm_start=cold.strategy)
        assert result.best_cost == cold.best_cost

    def test_config_rejects_non_strategy(self):
        from repro.errors import OptimizationError

        with pytest.raises(OptimizationError):
            FTSearchConfig(warm_start="not a strategy")
