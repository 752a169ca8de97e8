"""The block engine beyond one block, and its multi-process driver.

The in-process engine and the pool driver (``jobs>1``) promise *cost
and strategy* equality against the reference oracle on every instance —
node counts and prune statistics are engine-specific, and under the
shared incumbent bound they additionally vary run to run. The corpus
and its checker live in ``test_ftsearch_equivalence``; this suite runs
its mid-size slice (instances big enough that blocks split and stack),
the pool driver over it, and pins the shared-bound tighten-only
invariant, warm-start interaction, budget handling, configuration
validation, and what happens when a worker dies.

Tier-1 runs sample the corpus; set ``REPRO_NIGHTLY=1`` (the scheduled
CI workflow does) to sweep every seed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random

import pytest

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    ReferenceFTSearch,
    SearchOutcome,
    VectorFTSearch,
    ft_search,
    parallel,
)
from repro.core.optimizer.parallel import (
    SharedBound,
    parallel_ft_search,
    shutdown,
)
from repro.errors import ExperimentError, OptimizationError
from tests.optimizer.test_ftsearch_equivalence import (
    N_INSTANCES,
    _problem,
    assert_same_optimum,
    check_corpus_case,
    ties_for,
)
from tests.support import random_deployment, random_descriptor

_NIGHTLY = bool(os.environ.get("REPRO_NIGHTLY"))

#: Corpus sampling: every seed on the nightly sweep, a spread sample on
#: tier-1 (the reference oracle is slow, and jobs>1 pays pool traffic).
VECTOR_SEEDS = range(N_INSTANCES) if _NIGHTLY else range(0, N_INSTANCES, 3)
POOL_SEEDS = range(N_INSTANCES) if _NIGHTLY else range(0, N_INSTANCES, 11)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    """Tests share the persistent pool; tear it down once at the end."""
    yield
    shutdown()


def _rich_problem() -> OptimizationProblem:
    """A feasible 8-PE instance big enough to split (~1100 nodes)."""
    rng = random.Random(1)
    descriptor = random_descriptor(
        rng, n_pes=8, n_configs=2, max_extra_edges=3
    )
    deployment = random_deployment(
        rng, descriptor, n_hosts=3, headroom=1.3
    )
    return OptimizationProblem(deployment, ic_target=0.6)


class TestVectorEqualsReference:
    """The corpus's mid-size slice: 6-8 PEs, tens of thousands of
    nodes, so the engine splits blocks at ``BLOCK_ROWS`` and works a
    real stack (toy instances exhaust inside one block)."""

    @pytest.mark.parametrize("seed", VECTOR_SEEDS)
    def test_default_config(self, seed):
        check_corpus_case("mid-default", seed, size="mid")

    @pytest.mark.parametrize("rule", list(PruneRule))
    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_each_rule_disabled(self, seed, rule):
        # Toy-sized: a disabled rule leaves the oracle up to 3^n_vars
        # leaves to visit.
        check_corpus_case(
            f"no-{rule.value}", seed, disabled_rules=frozenset({rule})
        )

    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_penalty_mode(self, seed):
        check_corpus_case(
            "mid-penalty", seed, size="mid", penalty_weight=1.0e8
        )

    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_seeded_incumbent(self, seed):
        check_corpus_case(
            "mid-seeded", seed, size="mid", seed_incumbent=True
        )

    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_tiny_blocks_change_nothing(self, seed):
        """Correctness never depends on the block-row budget (node
        counts may: splitting finds incumbents in a different order)."""
        problem = _problem(seed, "mid")
        config = FTSearchConfig(time_limit=None)
        baseline = VectorFTSearch(problem, config).run()
        tiny = VectorFTSearch(problem, config, block_rows=3).run()
        assert_same_optimum(tiny, baseline, problem)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", POOL_SEEDS)
    def test_jobs4_matches_reference(self, seed):
        problem = _problem(seed)
        config = FTSearchConfig(
            time_limit=None, seed_incumbent=True, jobs=4
        )
        oracle = ReferenceFTSearch(
            problem, FTSearchConfig(time_limit=None, seed_incumbent=True)
        ).run()
        assert_same_optimum(
            parallel_ft_search(problem, config),
            oracle,
            problem,
            ties_for("seeded", seed),
            config,
        )

    @pytest.mark.parametrize("seed", POOL_SEEDS)
    def test_jobs1_and_jobs4_agree(self, seed):
        problem = _problem(seed)
        one = ft_search(problem, time_limit=None, jobs=1)
        four = ft_search(problem, time_limit=None, jobs=4)
        assert_same_optimum(four, one, problem)

    def test_without_shared_bound_nodes_are_reproducible(self):
        problem = _rich_problem()
        config = FTSearchConfig(
            time_limit=None, jobs=2, shared_bound=False
        )
        a = parallel_ft_search(problem, config)
        b = parallel_ft_search(problem, config)
        assert a.stats.nodes_expanded == b.stats.nodes_expanded
        assert a.stats.values_tried == b.stats.values_tried
        assert_same_optimum(a, b, problem)

    def test_shared_bound_never_changes_the_optimum(self):
        problem = _rich_problem()
        base = parallel_ft_search(
            problem,
            FTSearchConfig(time_limit=None, jobs=2, shared_bound=False),
        )
        shared = parallel_ft_search(
            problem,
            FTSearchConfig(time_limit=None, jobs=2, shared_bound=True),
        )
        assert_same_optimum(shared, base, problem)


class TestWarmStartTimesParallel:
    @pytest.mark.parametrize("seed", POOL_SEEDS)
    @pytest.mark.parametrize("jobs", (1, 4))
    def test_warm_equals_cold(self, seed, jobs):
        problem = _problem(seed)
        cold = ft_search(problem, time_limit=None, jobs=jobs)
        if cold.strategy is None:
            pytest.skip("instance infeasible")
        warm = ft_search(
            problem,
            time_limit=None,
            jobs=jobs,
            warm_start=cold.strategy,
        )
        assert warm.outcome is SearchOutcome.OPTIMAL
        assert_same_optimum(warm, cold, problem)

    def test_warm_start_seeds_the_vector_engine(self):
        problem = _rich_problem()
        cold = ft_search(problem, time_limit=None)
        assert cold.strategy is not None
        engine = VectorFTSearch(
            problem,
            FTSearchConfig(time_limit=None, warm_start=cold.strategy),
        )
        assert engine.seed.codes is not None
        assert engine.seed.cost == cold.best_cost


class TestSharedBound:
    def _bound(self) -> SharedBound:
        return SharedBound(multiprocessing.Value("d", math.inf))

    def test_starts_at_infinity(self):
        assert math.isinf(self._bound().get())

    def test_offer_only_tightens(self):
        bound = self._bound()
        bound.offer(10.0)
        assert bound.get() == 10.0
        bound.offer(25.0)  # looser: must be ignored
        assert bound.get() == 10.0
        bound.offer(3.0)
        assert bound.get() == 3.0

    def test_reset_rearms_between_runs(self):
        bound = self._bound()
        bound.offer(1.0)
        bound.reset(7.5)
        assert bound.get() == 7.5
        bound.offer(9.0)
        assert bound.get() == 7.5


class TestBudgetsAndValidation:
    def test_node_budget_truncates_with_anytime_outcome(self):
        problem = _rich_problem()
        result = ft_search(
            problem,
            time_limit=None,
            node_limit=10,
            seed_incumbent=True,
            jobs=1,
        )
        assert result.outcome in (
            SearchOutcome.FEASIBLE,
            SearchOutcome.TIMEOUT,
        )

    def test_parallel_node_budget_is_shared_out(self):
        problem = _rich_problem()
        full = ft_search(problem, time_limit=None, jobs=2)
        capped = ft_search(
            problem,
            time_limit=None,
            node_limit=60,
            seed_incumbent=True,
            jobs=2,
        )
        assert capped.stats.nodes_expanded < full.stats.nodes_expanded

    def test_default_jobs_never_start_a_pool(self, monkeypatch):
        """``jobs=None`` is ``jobs=1``: in-process, whatever the
        fabric's environment default says — same result, same counters,
        no pool session."""
        shutdown()
        monkeypatch.setenv("REPRO_JOBS", "4")
        problem = _rich_problem()
        default = ft_search(problem, time_limit=None)
        one = ft_search(problem, time_limit=None, jobs=1)
        assert parallel._SESSION is None
        assert_same_optimum(default, one, problem)
        assert default.stats == one.stats

    @pytest.mark.parametrize("jobs", (0, -3))
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(OptimizationError):
            FTSearchConfig(jobs=jobs)

    def test_bad_block_rows_rejected(self):
        with pytest.raises(ValueError):
            VectorFTSearch(_problem(0), block_rows=0)

    def test_roots_must_be_nonempty_and_same_depth(self):
        problem = _problem(0)
        with pytest.raises(ValueError):
            VectorFTSearch(problem, roots=[])
        with pytest.raises(ValueError):
            VectorFTSearch(problem, roots=[b"\x00", b"\x00\x01"])


class TestSplitAndFold:
    def test_split_plus_tasks_equal_single_run(self):
        """Driving the split/fold machinery by hand, in-process, must
        reproduce the one-shot vector result exactly."""
        problem = _rich_problem()
        config = FTSearchConfig(time_limit=None, seed_incumbent=True)
        single = VectorFTSearch(problem, config).run()

        engine = VectorFTSearch(problem, config)
        prefixes, split_raw = engine.split_frontier(8)
        raws = [split_raw]
        for lo in range(0, len(prefixes), 3):
            worker = VectorFTSearch(
                problem, config, roots=prefixes[lo:lo + 3]
            )
            raws.append(worker.search())
        merged = engine.build_result(raws)
        assert_same_optimum(merged, single, problem)
        assert merged.stats.nodes_expanded == single.stats.nodes_expanded

    def test_split_on_exhausted_instance_returns_no_prefixes(self):
        problem = _problem(2)
        engine = VectorFTSearch(
            problem, FTSearchConfig(time_limit=None)
        )
        prefixes, raw = engine.split_frontier(10 ** 9)
        assert prefixes == []
        result = engine.build_result([raw])
        oracle = ReferenceFTSearch(
            problem, FTSearchConfig(time_limit=None)
        ).run()
        assert_same_optimum(result, oracle, problem)


def _die(task):
    """A subtree worker that takes its whole process down."""
    os._exit(1)


class TestWorkerDeath:
    def test_dead_worker_is_a_typed_error_and_the_pool_recovers(
        self, monkeypatch
    ):
        problem = _rich_problem()
        config = FTSearchConfig(time_limit=None, jobs=2)
        expected = parallel_ft_search(problem, config)

        with monkeypatch.context() as patched:
            patched.setattr(parallel, "_run_subtree", _die)
            with pytest.raises(ExperimentError, match=r"_die over \d+ task"):
                parallel_ft_search(problem, config)
        session = parallel._SESSION
        assert session is not None
        # The broken executor is gone with its processes, and the bound
        # does not carry the dead run's incumbent into the next one.
        assert not session.pool.started
        assert multiprocessing.active_children() == []
        assert math.isinf(session.bound.get())

        again = parallel_ft_search(problem, config)
        assert_same_optimum(again, expected, problem)
        shutdown()
        assert multiprocessing.active_children() == []
