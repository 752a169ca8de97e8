"""The equivalence corpus: the block engine against the reference oracle.

The production engine (:class:`repro.core.optimizer.VectorFTSearch`)
explores the tree block by block, prunes against a banded incumbent and
restores the depth-first tie-break by a rank fold; the oracle
(:class:`repro.core.optimizer.ReferenceFTSearch`) is the paper's
recursive search. They must agree on *what* is returned — outcome, best
cost and IC bit for bit, and the strategy — on every instance and in
every mode: default, each pruning rule disabled, greedy-seeded,
reversed configuration order, and (for the anytime contract) under a
node budget. Node counts and prune statistics are engine-specific and
not compared. Warm-started runs are judged in
``tests/optimizer/test_warm_start.py``; :class:`TestWarmStart` only
checks that the block engine installs the warm incumbent.

Two corpora drive the check: seeded random instances (every seed its own
test id, and the same instance under every ``PYTHONHASHSEED``; toy ones
in every mode and a sampled mid-size slice, every mid-size seed when
``REPRO_NIGHTLY=1``), and a Hypothesis property over generated graphs,
profiles, rate distributions and clusters.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
)
from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    ReferenceFTSearch,
    SearchOutcome,
    VectorFTSearch,
    ft_search,
)
from tests.support import GIGA, random_deployment, random_descriptor

#: Seeds 0..N-1 drive instance generation; every seed is its own test id
#: so a divergence names the instance that produced it.
N_INSTANCES = 50

#: ``(n_pes range, max extra edges)`` of the corpus's two size classes.
#: "toy" instances exhaust in one block, so every mode (including all
#: rules disabled, 3^n_vars leaves) is affordable; "mid" ones make the
#: engine split, stack and re-order blocks.
SIZES = {"toy": ((3, 5), 3), "mid": ((6, 8), 4)}

def _problem(seed: int, size: str = "toy") -> OptimizationProblem:
    (low, high), extra_edges = SIZES[size]
    rng = random.Random(seed)
    descriptor = random_descriptor(
        rng,
        n_pes=rng.randint(low, high),
        n_configs=rng.choice((2, 2, 3)) if size == "toy" else 2,
        max_extra_edges=extra_edges,
    )
    deployment = random_deployment(
        rng, descriptor, n_hosts=rng.randint(2, 3),
        headroom=rng.uniform(1.3, 2.4),
    )
    return OptimizationProblem(
        deployment, ic_target=rng.choice((0.3, 0.5, 0.6, 0.7, 0.9))
    )


def _activation_matrix(strategy):
    if strategy is None:
        return None
    n_configs = len(strategy.deployment.descriptor.configuration_space)
    return tuple(
        tuple(sorted(strategy.active_map(c).items()))
        for c in range(n_configs)
    )


def assert_same_optimum(result, oracle) -> None:
    """Outcome, cost, IC and strategy equality — the engines' contract."""
    assert result.outcome is oracle.outcome
    assert result.best_cost == oracle.best_cost
    assert result.best_ic == oracle.best_ic
    assert _activation_matrix(result.strategy) == _activation_matrix(
        oracle.strategy
    ), "co-optimal strategies diverged"


def assert_equivalent(
    problem: OptimizationProblem, config: FTSearchConfig
) -> None:
    """Run both engines on ``problem`` and compare what they return."""
    oracle = ReferenceFTSearch(problem, config).run()
    assert_same_optimum(VectorFTSearch(problem, config).run(), oracle)


def check_corpus_case(seed: int, size: str = "toy", **config) -> None:
    """One corpus case: ``config`` is the :class:`FTSearchConfig` mode."""
    assert_equivalent(
        _problem(seed, size), FTSearchConfig(node_limit=None, **config)
    )


# ----------------------------------------------------------------------
# The seeded corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_equivalent_on_random_instances(seed):
    check_corpus_case(seed)


@pytest.mark.parametrize("rule", list(PruneRule))
@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 7))
def test_equivalent_with_rule_disabled(seed, rule):
    check_corpus_case(seed, disabled_rules=frozenset({rule}))


@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 11))
def test_equivalent_with_all_rules_disabled(seed):
    check_corpus_case(seed, disabled_rules=frozenset(PruneRule))


@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 11))
def test_equivalent_with_seed_incumbent(seed):
    check_corpus_case(seed, seed_incumbent=True)


@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 11))
def test_equivalent_without_hungry_order(seed):
    check_corpus_case(seed, hungry_configs_first=False)


@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
@pytest.mark.parametrize("node_limit", (1, 37, 500))
def test_equivalent_under_node_budget(seed, node_limit):
    """The anytime contract under truncation. *Where* a budget stops a
    search is engine-specific (the block engine advances only the rows
    the budget has left), so a truncated run is held to what any anytime
    search owes: a run that finished anyway equals the oracle's; one
    that did not says so, expands no more nodes than the budget, and
    returns — if anything — a feasible strategy no cheaper than the
    optimum."""
    problem = _problem(seed)
    optimum = ReferenceFTSearch(problem, FTSearchConfig(node_limit=None)).run()
    capped = VectorFTSearch(
        problem, FTSearchConfig(node_limit=node_limit)
    ).run()
    assert capped.stats.nodes_expanded <= node_limit
    if capped.outcome.is_proof:
        assert_same_optimum(capped, optimum)
        return
    assert capped.outcome is (
        SearchOutcome.TIMEOUT
        if capped.strategy is None
        else SearchOutcome.FEASIBLE
    )
    if capped.strategy is not None:
        assert optimum.strategy is not None
        assert capped.best_cost >= optimum.best_cost * (1 - 1e-9)
        assert capped.best_ic >= problem.ic_target - 1e-9


# ----------------------------------------------------------------------
# The check bites: a strategy that differs only at a tie fails it
# ----------------------------------------------------------------------


class _FlippedTieBreak(ReferenceFTSearch):
    """The oracle with equal host loads broken the other way: the
    single replica on host 1 is tried first when both hosts carry the
    same load."""

    def _ordered_values(self, depth, c, pe):
        values = super()._ordered_values(depth, c, pe)
        host0, host1 = self._hosts[pe]
        if self._host_load[(host0, c)] == self._host_load[(host1, c)]:
            values[-2:] = reversed(values[-2:])
        return values


def test_a_flipped_tie_break_fails_the_check():
    """On toy seed 24 the flipped order finds a co-optimal strategy —
    bit-equal cost and IC, other replicas — and the check rejects it."""
    problem = _problem(24)
    config = FTSearchConfig(node_limit=None)
    result = VectorFTSearch(problem, config).run()
    flipped = _FlippedTieBreak(problem, config).run()
    assert (flipped.best_cost, flipped.best_ic) == (
        result.best_cost, result.best_ic
    )
    with pytest.raises(AssertionError, match="strategies diverged"):
        assert_same_optimum(result, flipped)


# ----------------------------------------------------------------------
# The mid-size slice: blocks split and stack
# ----------------------------------------------------------------------

#: Mid-size corpus sampling: every seed on the nightly sweep
#: (``REPRO_NIGHTLY=1``), a spread sample on tier-1.
VECTOR_SEEDS = (
    range(N_INSTANCES)
    if os.environ.get("REPRO_NIGHTLY")
    else range(0, N_INSTANCES, 3)
)


def _rich_problem() -> OptimizationProblem:
    """A feasible 8-PE instance of ~1100 nodes."""
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
        check_corpus_case(seed, size="mid")

    @pytest.mark.parametrize("rule", list(PruneRule))
    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_each_rule_disabled(self, seed, rule):
        # Toy-sized: a disabled rule leaves the oracle up to 3^n_vars
        # leaves to visit.
        check_corpus_case(seed, disabled_rules=frozenset({rule}))

    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_seeded_incumbent(self, seed):
        check_corpus_case(seed, size="mid", seed_incumbent=True)

    @pytest.mark.parametrize("seed", range(0, N_INSTANCES, 17))
    def test_tiny_blocks_same_best(self, seed):
        """Correctness never depends on the block-row budget (node
        counts may: splitting finds incumbents in a different order)."""
        problem = _problem(seed, "mid")
        config = FTSearchConfig(node_limit=None)
        baseline = VectorFTSearch(problem, config).run()
        tiny = VectorFTSearch(problem, config, block_rows=3).run()
        assert_same_optimum(tiny, baseline)


class TestWarmStart:
    def test_warm_start_seeds_the_vector_engine(self):
        problem = _rich_problem()
        cold = ft_search(problem, node_limit=None)
        assert cold.strategy is not None
        engine = VectorFTSearch(
            problem,
            FTSearchConfig(node_limit=None, warm_start=cold.strategy),
        )
        assert engine.seed.codes is not None
        assert engine.seed.cost == cold.best_cost


# ----------------------------------------------------------------------
# The corpus is a corpus: one instance per seed, whatever the hash seed
# ----------------------------------------------------------------------

_DIGEST_SCRIPT = """
from repro.core.optimizer import FTSearchConfig, VectorFTSearch
from tests.optimizer.test_ftsearch_equivalence import N_INSTANCES, _problem
for seed in range(N_INSTANCES):
    result = VectorFTSearch(
        _problem(seed), FTSearchConfig(node_limit=None)
    ).run()
    print(seed, repr(result.best_cost), result.stats.nodes_expanded)
"""


def _corpus_digest(hash_seed: str) -> str:
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def test_corpus_is_the_same_under_every_hash_seed():
    """Set iteration order follows PYTHONHASHSEED; the generator must
    not. Two processes with different hash seeds produce the same
    per-seed (best cost, node count), and most instances are feasible
    (an all-NUL corpus would compare empty results)."""
    digest = _corpus_digest("0")
    assert digest == _corpus_digest("4242")
    lines = digest.splitlines()
    assert len(lines) == N_INSTANCES
    feasible = sum(" inf " not in line for line in lines)
    assert feasible >= N_INSTANCES // 2


# ----------------------------------------------------------------------
# Generated instances (Hypothesis): graphs, profiles, rates, clusters
# ----------------------------------------------------------------------


@st.composite
def problems(draw, min_pes: int = 2) -> OptimizationProblem:
    """A generated problem: a connected DAG of ``min_pes``-5 PEs behind
    one source (every PE fed by an earlier PE or the source, extra
    forward edges on top), drawn selectivities and CPU costs, a 2-3
    level source-rate distribution, and a balanced two-fold deployment
    on 2-3 hosts whose headroom and IC target span infeasible to
    comfortable."""
    n_pes = draw(st.integers(min_pes, 5))
    pes = [f"pe{i}" for i in range(n_pes)]
    edges = {("src", pes[0])}
    for i in range(1, n_pes):
        feeder = draw(st.integers(-1, i - 1))
        edges.add(("src" if feeder < 0 else pes[feeder], pes[i]))
    for i, j in draw(
        st.lists(
            st.tuples(st.integers(0, n_pes - 1), st.integers(0, n_pes - 1)),
            max_size=4,
        )
    ):
        if i != j:
            edges.add((pes[min(i, j)], pes[max(i, j)]))
    with_successor = {tail for tail, _ in edges}
    edges |= {(pe, "sink") for pe in pes if pe not in with_successor}
    graph = ApplicationGraph.build(["src"], pes, ["sink"], sorted(edges))

    profiles = {
        (tail, head): EdgeProfile(
            selectivity=draw(st.floats(0.25, 2.0)),
            cpu_cost=draw(st.floats(0.005, 0.05)) * GIGA,
        )
        for tail, head in sorted(edges)
        if head != "sink"
    }
    levels = draw(
        st.lists(
            st.tuples(st.floats(1.0, 20.0), st.floats(0.1, 1.0)),
            min_size=2,
            max_size=3,
            unique_by=lambda level: level[0],
        )
    )
    total = sum(weight for _, weight in levels)
    space = ConfigurationSpace.from_source_rates(
        {"src": [(rate, weight / total) for rate, weight in sorted(levels)]}
    )
    descriptor = ApplicationDescriptor(
        graph, profiles, space, name="generated"
    )
    deployment = random_deployment(
        random.Random(0),
        descriptor,
        n_hosts=draw(st.integers(2, 3)),
        headroom=draw(st.floats(0.8, 3.0)),
    )
    return OptimizationProblem(
        deployment, ic_target=draw(st.floats(0.05, 0.95))
    )


def degenerate_problem(
    zero_probability: bool = False,
    zero_rate_pe: bool = False,
    ic_target: float = 0.5,
) -> OptimizationProblem:
    """A 4-PE chain with variables whose second replica can add no FIC:
    with ``zero_probability`` a configuration of probability 0, with
    ``zero_rate_pe`` a PE behind a selectivity-0 edge, which receives
    nothing (``pe0 -> pe3`` keeps the last PE fed)."""
    pes = ["pe0", "pe1", "pe2", "pe3"]
    edges = [
        ("src", "pe0"), ("pe0", "pe1"), ("pe1", "pe2"), ("pe2", "pe3"),
        ("pe0", "pe3"), ("pe3", "sink"),
    ]
    graph = ApplicationGraph.build(["src"], pes, ["sink"], edges)
    profiles = {
        (tail, head): EdgeProfile(
            selectivity=0.0 if zero_rate_pe and head == "pe1" else 0.8,
            cpu_cost=0.01 * (1 + i) * GIGA,
        )
        for i, (tail, head) in enumerate(edges)
        if head != "sink"
    }
    levels = [(3.0, 0.6), (6.0, 0.4)]
    if zero_probability:
        levels.append((9.0, 0.0))
    space = ConfigurationSpace.from_source_rates({"src": levels})
    descriptor = ApplicationDescriptor(
        graph, profiles, space, name="degenerate"
    )
    deployment = random_deployment(
        random.Random(0), descriptor, n_hosts=2, headroom=2.5
    )
    return OptimizationProblem(deployment, ic_target=ic_target)


@settings(max_examples=40, deadline=None)
@given(
    problem=problems(),
    disabled=st.sets(st.sampled_from(list(PruneRule)), max_size=1),
    seeded=st.booleans(),
)
def test_equivalent_on_generated_instances(
    problem: OptimizationProblem,
    disabled: set,
    seeded: bool,
):
    assert_equivalent(
        problem,
        FTSearchConfig(
            node_limit=None,
            disabled_rules=frozenset(disabled),
            seed_incumbent=seeded,
        ),
    )
