"""Ablation: how much search effort each FT-Search pruning rule saves.

Complements Fig. 6 (which counts how often rules fire) with the
counterfactual the paper does not report: the extra work the search does
when one rule is switched off. Disabling a rule can only slow the search
down — the optimum is unchanged (enforced by tests/optimizer/
test_ablation.py) — so the values-tried inflation is a clean measure of
each rule's contribution.
"""

from __future__ import annotations

import pytest

from repro.core import (
    OptimizationProblem,
    PruneRule,
    SearchOutcome,
    ft_search,
)
from repro.experiments.report import format_table
from repro.workloads import ClusterParams, GeneratorParams, generate_application


def ablation_instance():
    """Small enough that even the rule-free search exhausts quickly."""
    return generate_application(
        seed=31,
        params=GeneratorParams(n_pes=6),
        cluster=ClusterParams(n_hosts=2, cores_per_host=6),
    )


def test_ablation_pruning(benchmark, save_figure):
    app = ablation_instance()
    problem = OptimizationProblem(app.deployment, ic_target=0.5)

    baseline = benchmark.pedantic(
        lambda: ft_search(problem, node_limit=None), rounds=1, iterations=1
    )
    assert baseline.outcome is SearchOutcome.OPTIMAL

    rows = [
        [
            "(none)",
            baseline.stats.values_tried,
            baseline.stats.nodes_expanded,
            1.0,
        ]
    ]
    for rule in PruneRule:
        ablated = ft_search(
            problem, node_limit=None, disabled_rules=frozenset({rule})
        )
        assert ablated.outcome is SearchOutcome.OPTIMAL
        assert ablated.best_cost == pytest.approx(
            baseline.best_cost, rel=1e-6
        )
        rows.append(
            [
                rule.value,
                ablated.stats.values_tried,
                ablated.stats.nodes_expanded,
                ablated.stats.values_tried
                / max(1, baseline.stats.values_tried),
            ]
        )
    everything = ft_search(
        problem, node_limit=None, disabled_rules=frozenset(PruneRule)
    )
    assert everything.outcome is SearchOutcome.OPTIMAL
    rows.append(
        [
            "ALL",
            everything.stats.values_tried,
            everything.stats.nodes_expanded,
            everything.stats.values_tried
            / max(1, baseline.stats.values_tried),
        ]
    )

    table = format_table(
        ["rule disabled", "values tried", "nodes", "work vs full pruning"],
        rows,
        title=(
            "Ablation - search effort with individual pruning rules"
            f" disabled ({len(app.descriptor.graph.pes)} PEs,"
            " 2 configurations, IC target 0.5)"
        ),
    )
    save_figure("ablation_pruning", table)

    # Every ablation does at least as much work as the full search, and
    # the rule-free search strictly dominates everything.
    for row in rows[1:]:
        assert row[3] >= 1.0
    assert rows[-1][1] == max(row[1] for row in rows)
