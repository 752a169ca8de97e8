"""Tests for FT-Search: correctness against brute force, pruning, outcomes."""

from __future__ import annotations

import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FTSearchConfig,
    Host,
    OptimizationProblem,
    PruneRule,
    ReplicaId,
    ReplicatedDeployment,
    SearchOutcome,
    cpu_constraint_violations,
    ft_search,
    internal_completeness,
    strategy_cost,
)
from repro.core.optimizer.vector import VectorFTSearch
from repro.errors import OptimizationError
from repro.workloads import generate_application
from tests.support import (
    enumerate_strategies,
    random_deployment,
    random_descriptor,
)

GIGA = 1.0e9


def brute_force_optimum(problem):
    """Exhaustively evaluate all strategies; return (cost, ic) of the best."""
    best = None
    for strategy in enumerate_strategies(problem.deployment):
        evaluation = problem.evaluate(strategy)
        if not evaluation.feasible:
            continue
        if best is None or evaluation.cost < best[0] - 1e-9:
            best = (evaluation.cost, evaluation.ic)
    return best


@pytest.fixture
def tight_problem(pipeline_descriptor):
    hosts = [Host("h0", cores=1, cycles_per_core=GIGA),
             Host("h1", cores=1, cycles_per_core=GIGA)]
    assignment = {
        ReplicaId("pe1", 0): "h0",
        ReplicaId("pe1", 1): "h1",
        ReplicaId("pe2", 0): "h1",
        ReplicaId("pe2", 1): "h0",
    }
    deployment = ReplicatedDeployment(
        pipeline_descriptor, hosts, assignment, 2
    )
    return OptimizationProblem(deployment, ic_target=0.5)


class TestPipelineSearch:
    def test_finds_known_optimum(self, pipeline_deployment):
        """On the roomy two-core deployment the hand-computed optimum for
        an IC target of 0.5 keeps pe1 fully replicated everywhere and pe2
        single everywhere: cost 1.44e9, IC exactly 0.5."""
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.5)
        result = ft_search(problem)
        assert result.outcome is SearchOutcome.OPTIMAL
        assert result.best_cost == pytest.approx(1.44 * GIGA)
        assert result.best_ic == pytest.approx(0.5)

    def test_solution_is_feasible(self, tight_problem):
        result = ft_search(tight_problem)
        assert result.outcome is SearchOutcome.OPTIMAL
        evaluation = tight_problem.evaluate(result.strategy)
        assert evaluation.feasible
        assert evaluation.cost == pytest.approx(result.best_cost)
        assert evaluation.ic == pytest.approx(result.best_ic)

    def test_incremental_bookkeeping_matches_model(self, tight_problem):
        """The search's internal IC/cost accounting must agree with the
        reference implementations in repro.core.ic / repro.core.cost."""
        result = ft_search(tight_problem)
        assert internal_completeness(result.strategy) == pytest.approx(
            result.best_ic
        )
        assert strategy_cost(result.strategy) == pytest.approx(
            result.best_cost
        )
        assert cpu_constraint_violations(result.strategy) == []

    def test_ic_one_requires_full_replication(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=1.0)
        result = ft_search(problem)
        assert result.outcome is SearchOutcome.OPTIMAL
        for pe in ("pe1", "pe2"):
            for c in range(2):
                assert result.strategy.fully_replicated(pe, c)

    def test_infeasible_when_capacity_cannot_hold_one_replica(
        self, pipeline_descriptor
    ):
        hosts = [Host("h0", cores=1, cycles_per_core=0.1 * GIGA),
                 Host("h1", cores=1, cycles_per_core=0.1 * GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h1",
            ReplicaId("pe2", 1): "h0",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, 2
        )
        problem = OptimizationProblem(deployment, ic_target=0.0)
        result = ft_search(problem)
        assert result.outcome is SearchOutcome.INFEASIBLE
        assert result.strategy is None

    def test_infeasible_when_ic_target_unreachable(self, tight_problem):
        """The tight deployment cannot keep full replication in High, so
        an IC demand of 1.0 is provably infeasible."""
        problem = OptimizationProblem(
            tight_problem.deployment, ic_target=1.0
        )
        result = ft_search(problem)
        assert result.outcome is SearchOutcome.INFEASIBLE

    def test_node_budget_truncates(self, tight_problem):
        result = ft_search(tight_problem, node_limit=1)
        assert result.outcome in (
            SearchOutcome.FEASIBLE,
            SearchOutcome.TIMEOUT,
        )

    def test_rejects_non_two_fold_replication(self, pipeline_descriptor):
        hosts = [Host("h0", cores=4, cycles_per_core=GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe2", 0): "h0",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, replication_factor=1
        )
        problem = OptimizationProblem(deployment, ic_target=0.5)
        with pytest.raises(OptimizationError, match="k=2"):
            ft_search(problem)

    def test_bad_config_rejected(self):
        with pytest.raises(OptimizationError):
            FTSearchConfig(node_limit=-1)
        with pytest.raises(OptimizationError):
            FTSearchConfig(node_limit=0)


class TestBudgetsAndValidation:
    @pytest.mark.parametrize(
        "node_limit",
        [math.inf, math.nan, True, 0.5, 2.5, 0, -5],
        ids=["nodes-inf", "nodes-nan", "nodes-true", "nodes-half",
             "nodes-2.5", "nodes-zero", "nodes-negative"],
    )
    def test_non_finite_budget_rejected(self, node_limit):
        """The budget is a positive int: a NaN or infinite node limit
        would run unbounded, ``True`` or ``0.5`` would be one node and
        ``2.5`` would crash the block engine's slicing."""
        with pytest.raises(
            OptimizationError, match=re.escape(repr(node_limit))
        ):
            FTSearchConfig(node_limit=node_limit)

    def test_a_wall_clock_budget_is_refused(self, tight_problem):
        """FT-Search reads no clock: ``time_limit`` accepts only None."""
        with pytest.raises(OptimizationError, match="in nodes"):
            ft_search(tight_problem, time_limit=10.0)

    def test_node_budget_truncates_with_anytime_outcome(self):
        from tests.optimizer.test_ftsearch_equivalence import _rich_problem

        result = ft_search(
            _rich_problem(),
            node_limit=10,
            seed_incumbent=True,
            jobs=1,
        )
        assert result.outcome in (
            SearchOutcome.FEASIBLE,
            SearchOutcome.TIMEOUT,
        )

    def test_jobs_none_and_one_are_the_same_run(self, monkeypatch):
        """In-process either way, whatever ``REPRO_JOBS`` says: same
        optimum, same counters."""
        from tests.optimizer.test_ftsearch_equivalence import _rich_problem

        monkeypatch.setenv("REPRO_JOBS", "4")
        problem = _rich_problem()
        default = ft_search(problem, node_limit=None)
        one = ft_search(problem, node_limit=None, jobs=1)
        assert default.best_cost == one.best_cost
        assert default.strategy.to_dict() == one.strategy.to_dict()
        assert default.stats == one.stats

    @pytest.mark.parametrize("jobs", (2, 0, -3))
    def test_parallel_search_is_the_callers_fabric(self, tight_problem, jobs):
        with pytest.raises(OptimizationError, match="fabric"):
            ft_search(tight_problem, jobs=jobs)

    def test_bad_block_rows_rejected(self):
        from repro.core.optimizer import VectorFTSearch
        from tests.optimizer.test_ftsearch_equivalence import _problem

        with pytest.raises(ValueError):
            VectorFTSearch(_problem(0), block_rows=0)


class TestPruningStatistics:
    def test_cpu_prunes_fire_on_tight_deployment(self, tight_problem):
        result = ft_search(tight_problem)
        assert result.stats.prune_counts[PruneRule.CPU] > 0

    def test_compl_prunes_fire_for_high_targets(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.9)
        result = ft_search(problem)
        assert result.stats.prune_counts[PruneRule.COMPLETENESS] > 0

    def test_prune_shares_sum_to_one(self, tight_problem):
        result = ft_search(tight_problem)
        stats = result.stats
        if stats.total_prunes:
            total = sum(stats.prune_share(rule) for rule in PruneRule)
            assert total == pytest.approx(1.0)

    def test_heights_bounded_by_depth(self, tight_problem):
        result = ft_search(tight_problem)
        stats = result.stats
        for rule in PruneRule:
            assert 0 <= stats.mean_prune_height(rule) <= stats.depth

    def test_stats_merge(self, tight_problem):
        a = ft_search(tight_problem).stats
        b = ft_search(tight_problem).stats
        merged = a.merge(b)
        assert merged.nodes_expanded == a.nodes_expanded + b.nodes_expanded
        for rule in PruneRule:
            assert merged.prune_counts[rule] == (
                a.prune_counts[rule] + b.prune_counts[rule]
            )


class TestAgainstBruteForce:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ic_target=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0]),
    )
    def test_matches_exhaustive_enumeration(self, seed, ic_target):
        """FT-Search must find exactly the brute-force optimum (or prove
        infeasibility) on random 3-PE applications."""
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=3)
        deployment = random_deployment(rng, descriptor)
        problem = OptimizationProblem(deployment, ic_target=ic_target)
        reference = brute_force_optimum(problem)
        result = ft_search(problem)
        if reference is None:
            assert result.outcome is SearchOutcome.INFEASIBLE
        else:
            assert result.outcome is SearchOutcome.OPTIMAL
            assert result.best_cost == pytest.approx(
                reference[0], rel=1e-6
            )
            # The found strategy must itself be feasible.
            assert problem.evaluate(result.strategy).feasible

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cost_monotone_in_ic_target(self, seed):
        """A stricter IC target can never make the optimum cheaper."""
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=3)
        deployment = random_deployment(rng, descriptor)
        costs = []
        for target in (0.2, 0.5, 0.8):
            result = ft_search(
                OptimizationProblem(deployment, ic_target=target),
            )
            if result.outcome is SearchOutcome.INFEASIBLE:
                costs.append(math.inf)
            else:
                assert result.outcome is SearchOutcome.OPTIMAL
                costs.append(result.best_cost)
        assert costs == sorted(costs)


class TestSolutionTimes:
    """Fig. 5b's statistic is first-solution time over the time the
    *best* solution was found — not over the time it took to prove it.
    Time is counted in nodes expanded."""

    def test_best_solution_time_is_when_the_incumbent_last_tightened(self):
        from tests.optimizer.test_ftsearch_equivalence import _problem

        result = ft_search(_problem(6, "mid"), node_limit=None)
        assert result.outcome is SearchOutcome.OPTIMAL
        # The first leaf is not the best one, and ~50 k nodes of proof
        # follow the last improvement.
        assert result.first_solution_cost > result.best_cost
        assert (
            0
            < result.first_solution_nodes
            < result.best_solution_nodes
            < result.stats.nodes_expanded
        )
        assert 0.0 < result.node_ratio_first_to_best < 1.0

    def test_an_unbeaten_seed_is_the_best_from_second_zero(
        self, tight_problem
    ):
        """The oracle's convention: a seed incumbent no leaf improves on
        was found at node 0."""
        cold = ft_search(tight_problem, node_limit=None)
        warm = ft_search(
            tight_problem, node_limit=None, warm_start=cold.strategy
        )
        assert warm.best_cost == cold.best_cost
        assert warm.best_solution_nodes == 0


class TestCandidateBound:
    """The block engine keeps one path per distinct raw cost.

    Regression: at IC 0 on the paper's scale every leaf ties, and the
    engine kept each tied leaf (4 096 at 100 k nodes, 344 016 at 1 M)."""

    def test_one_candidate_per_cost_and_the_same_answer(self):
        problem = OptimizationProblem(
            generate_application(2014).deployment, ic_target=0.0
        )
        engine = VectorFTSearch(
            problem,
            FTSearchConfig(node_limit=100_000, seed_incumbent=True),
        )
        raw = engine.search()
        costs = [cost for cost, _path in raw.candidates]
        assert len(costs) == len(set(costs)) == 1
        # The answer the engine gave when it kept all 4 096 ties.
        result = engine.run()
        assert result.outcome is SearchOutcome.FEASIBLE
        assert result.best_cost == 30524074982.756973
        assert result.best_ic == 0.1274268925653016
        digest = hashlib.sha256(result.strategy.to_json().encode())
        assert digest.hexdigest()[:16] == "f3510cc74e44d050"
