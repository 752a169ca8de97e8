"""COST's bound is a lower bound, by generated inputs.

The block engine's COST rule (``VectorFTSearch._cost_bound``) adds to
the paper's bound -- assigned cost plus one replica per open variable --
the fractional-knapsack cost of the second replicas that can close the
row's FIC deficit. It may prune a node only when no completion of it
that meets the IC target costs less. The property walks a generated
problem to a random partial assignment with at most six variables open,
evaluates every completion (at most 3^6) and checks the bound of each
value of the next variable against the cheapest one that meets the
target. Pinned examples: a configuration of probability 0 and a PE that
receives nothing (their variables gain nothing: the duplicate-abscissa
case), and IC 0, where the bound must be the paper's bit for bit. A bound
inflated by one part in a million must fail it.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    VectorFTSearch,
)
from repro.core.optimizer.vector import _Block
from tests.optimizer.test_ftsearch_equivalence import (
    _problem,
    degenerate_problem,
    problems,
)

#: Variables a partial assignment leaves open, the stepped one included.
OPEN = 6

#: Relative float slack between the bound's sums and a completion's.
SLACK = 1e-12


@st.composite
def cases(draw) -> tuple[OptimizationProblem, tuple[int, ...]]:
    """A problem of 3-5 PEs and a partial assignment of it (value codes
    in variable order) with at most ``OPEN`` variables open."""
    problem = draw(problems(min_pes=3))
    descriptor = problem.deployment.descriptor
    n_vars = len(descriptor.graph.pes) * len(descriptor.configuration_space)
    depth = draw(st.integers(max(0, n_vars - OPEN), n_vars - 1))
    codes = st.sampled_from((0, 0, 0, 1, 2))  # "both" first: IC in reach
    prefix = draw(st.lists(codes, min_size=depth, max_size=depth))
    return problem, tuple(prefix)


def completions(layout, prefix: tuple[int, ...]) -> np.ndarray:
    """Every full assignment that extends ``prefix``, one per row."""
    rest = layout.n_vars - len(prefix)
    tails = np.array(list(itertools.product((0, 1, 2), repeat=rest)), int)
    heads = np.tile(np.array(prefix, int), (len(tails), 1))
    return np.hstack([heads, tails.reshape(len(tails), rest)])


def evaluate(layout, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(fic, cost)`` of each assignment row: the Δ-hat / FIC / cost
    recurrences of ``_replay_assignment``, one column at a time."""
    rows = len(codes)
    fic = np.zeros(rows)
    cost = np.zeros(rows)
    delta_hat = np.zeros((rows, layout.n_vars))
    for d in range(layout.n_vars):
        base = d - d % layout.n_pes
        both = codes[:, d] == 0
        weighted = np.full(rows, layout.d_src_sel[d])
        plain = np.full(rows, layout.d_src_sum[d])
        for pred, selectivity in layout.pe_preds[d % layout.n_pes]:
            weighted = weighted + selectivity * delta_hat[:, base + pred]
            plain = plain + delta_hat[:, base + pred]
        delta_hat[:, d] = np.where(both, weighted, 0.0)
        fic += np.where(both, layout.d_prob[d] * plain, 0.0)
        cost += np.where(both, 2.0, 1.0) * layout.d_prob_load[d]
    return fic, cost


def bic_of(problem: OptimizationProblem) -> float:
    descriptor = problem.deployment.descriptor
    space = descriptor.configuration_space
    return sum(
        space[c].probability * descriptor.rate_table.total_pe_input_rate(c)
        for c in range(len(space))
    )


def step_bound(engine, prefix: tuple[int, ...]) -> tuple[_Block, np.ndarray]:
    """Walk ``engine`` (every rule off, so a row's three children are
    rows 0-2) down ``prefix``; returns the one-row block there and
    COST's ``(2, 1)`` bound of its next variable's values."""
    block = _Block.root(engine._layout)
    for code in prefix:
        block = engine._materialise(engine._advance(block), code, code + 1)
    pending = engine._advance(block)
    engine._best_raw = 1.0  # an incumbent: the knapsack term is on
    return block, engine._cost_bound(block, pending.contrib_both)


def check_lower_bound(
    problem: OptimizationProblem,
    prefix: tuple[int, ...],
    engine_class: type = VectorFTSearch,
) -> None:
    config = FTSearchConfig(
        node_limit=None, disabled_rules=frozenset(PruneRule)
    )
    engine = engine_class(problem, config)
    layout = engine._layout
    block, bound = step_bound(engine, prefix)
    depth = len(prefix)
    paper = (
        block.cost
        + layout.d_cost_step[depth]
        + layout.suffix_min_cost[depth + 1]
    )
    assert (bound >= paper).all()
    if problem.ic_target == 0.0:
        assert bound.tobytes() == paper.tobytes()

    full = completions(layout, prefix)
    fic, cost = evaluate(layout, full)
    meets = fic / bic_of(problem) >= problem.ic_target - 1e-9
    for code in (0, 1, 2):
        chosen = meets & (full[:, depth] == code)
        if chosen.any():
            row = np.flatnonzero(chosen)[cost[chosen].argmin()]
            cheapest = cost[row]
            # the evaluator agrees with the engines' clean replay
            ic, replayed = layout.replay(tuple(int(v) for v in full[row]))
            assert abs(replayed - cheapest) <= SLACK * cheapest
            assert ic >= problem.ic_target - 1e-9
            assert bound[min(code, 1), 0] <= cheapest * (1 + SLACK), code


# Degenerate variables gain nothing; prefixes run through them.
_ZERO_PROBABILITY = degenerate_problem(zero_probability=True)
_ZERO_RATE = degenerate_problem(zero_rate_pe=True)


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=(_ZERO_PROBABILITY, (0, 1, 2, 0, 1, 2)))
@example(case=(_ZERO_PROBABILITY, (0, 0, 0, 0, 0, 0, 0, 0)))
@example(case=(_ZERO_RATE, (0, 0)))
@example(case=(_ZERO_RATE, (1, 0, 2, 1, 0)))
@example(case=(degenerate_problem(ic_target=0.0), (0, 1, 2)))
def test_the_cost_bound_is_a_lower_bound(case):
    check_lower_bound(*case)


class _Inflated(VectorFTSearch):
    def _cost_bound(self, block, contrib_both):
        return super()._cost_bound(block, contrib_both) * (1 + 1e-6)


def test_an_inflated_bound_fails_the_property():
    """The property bites: the pinned examples and a few corpus cases
    pass unmutated, and the bound x (1 + 1e-6) fails at least one."""
    rng = random.Random(0)
    pinned = [
        (_ZERO_PROBABILITY, (0, 1, 2, 0, 1, 2)),
        (_ZERO_RATE, (1, 0, 2, 1, 0)),
        (degenerate_problem(ic_target=0.0), (0, 1, 2)),
    ]
    for seed in range(6):
        problem = _problem(seed)
        n_vars = len(problem.deployment.descriptor.graph.pes) * len(
            problem.deployment.descriptor.configuration_space
        )
        depth = max(0, n_vars - OPEN)
        pinned.append(
            (problem, tuple(rng.choice((0, 1, 2)) for _ in range(depth)))
        )
    failures = 0
    for problem, prefix in pinned:
        check_lower_bound(problem, prefix)
        try:
            check_lower_bound(problem, prefix, _Inflated)
        except AssertionError:
            failures += 1
    assert failures > 0
