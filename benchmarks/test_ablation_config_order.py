"""Ablation: configuration exploration order (the Sec. 4.5 heuristic).

The paper states: "exploring nodes corresponding to the most resource
hungry configurations first improves execution time by making both the
CPU and IC constraints fail faster." This bench tests the claim directly:
the same instances are solved with the hungry-first order and with the
reversed order, comparing values tried.
"""

from __future__ import annotations

import pytest

from repro.core import FTSearchConfig, OptimizationProblem
from repro.core.optimizer import ReferenceFTSearch, SearchOutcome
from repro.experiments.report import format_table
from repro.workloads import ClusterParams, GeneratorParams, generate_application

SEEDS = (31, 32, 33, 34)


def solve(deployment, hungry_first):
    config = FTSearchConfig(node_limit=None, hungry_configs_first=hungry_first)
    # The claim is about the paper's depth-first visit order, so it is
    # tested on the reference oracle, not the block engine.
    result = ReferenceFTSearch(
        OptimizationProblem(deployment, ic_target=0.5), config
    ).run()
    assert result.outcome is SearchOutcome.OPTIMAL
    return result


def test_ablation_config_order(benchmark, save_figure):
    apps = [
        generate_application(
            seed,
            params=GeneratorParams(n_pes=6),
            cluster=ClusterParams(n_hosts=2, cores_per_host=6),
        )
        for seed in SEEDS
    ]

    benchmark.pedantic(
        lambda: solve(apps[0].deployment, True), rounds=1, iterations=1
    )

    rows = []
    total_hungry = 0
    total_reversed = 0
    for app in apps:
        hungry = solve(app.deployment, True)
        reversed_order = solve(app.deployment, False)
        # The optimum must not depend on exploration order.
        assert hungry.best_cost == pytest.approx(
            reversed_order.best_cost, rel=1e-6
        )
        total_hungry += hungry.stats.values_tried
        total_reversed += reversed_order.stats.values_tried
        rows.append(
            [
                app.name,
                hungry.stats.values_tried,
                reversed_order.stats.values_tried,
                reversed_order.stats.values_tried
                / max(1, hungry.stats.values_tried),
            ]
        )
    rows.append(
        [
            "TOTAL",
            total_hungry,
            total_reversed,
            total_reversed / max(1, total_hungry),
        ]
    )
    table = format_table(
        [
            "instance",
            "values tried (hungry first)",
            "values tried (reversed)",
            "reversed / hungry",
        ],
        rows,
        title=(
            "Ablation - configuration exploration order"
            " (paper: hungry-first makes constraints fail faster)"
        ),
    )
    save_figure("ablation_config_order", table)

    # The paper's claim, verified in aggregate over the instance set.
    assert total_hungry <= total_reversed
