"""The FT-Search algorithm study (Sec. 4.5, Figs. 4-6).

The paper runs FT-Search on 600 generated applications deployed on 1-12
hosts with 2-12 PEs per host under a 10-minute budget, and reports:

* Fig. 4 — how runs terminate (BST / SOL / NUL / TMO) as the IC
  constraint grows from 0.5 to 0.9;
* Fig. 5 — the cost ratio between the first solution and the optimum
  (mean ~1.057) and the time ratio (mean ~0.37), over the instances
  solved to optimality;
* Fig. 6 — pruning effectiveness: the share of domain values removed by
  each rule and the mean height of the pruned branches.

This module reproduces the study at a configurable scale
(:class:`~repro.experiments.scale.StudyScale`), using the same workload
generator as the cluster experiments with smaller graphs and clusters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    PruneRule,
    ReferenceFTSearch,
    SearchOutcome,
    SearchResult,
    SearchStats,
)
from repro.errors import DeploymentError, WorkloadError
from repro.experiments.parallel import resolve_jobs, run_tasks
from repro.experiments.scale import StudyScale
from repro.workloads.generator import (
    ClusterParams,
    GeneratedApplication,
    GeneratorParams,
    generate_application,
)

__all__ = ["StudyRun", "StudyResults", "run_ftsearch_study"]

#: First seed scanned for instances (JSR166, the paper's Fork-Join
#: framework).
BASE_SEED = 166


@dataclass(frozen=True)
class StudyRun:
    """One (instance, IC target) FT-Search execution."""

    app: str
    n_hosts: int
    n_pes: int
    ic_target: float
    outcome: SearchOutcome
    best_cost: float
    elapsed: float
    cost_ratio: Optional[float]
    time_ratio: Optional[float]
    stats: SearchStats = field(repr=False)


class StudyResults:
    """Aggregated views of the FT-Search study."""

    def __init__(
        self, scale: StudyScale, runs: list[StudyRun]
    ) -> None:
        self.scale = scale
        self.runs = runs

    def outcome_counts(
        self, ic_target: float
    ) -> dict[SearchOutcome, int]:
        """Fig. 4: termination classes for one IC constraint."""
        counts = {outcome: 0 for outcome in SearchOutcome}
        for run in self.runs:
            if run.ic_target == ic_target:
                counts[run.outcome] += 1
        return counts

    def cost_ratios(self) -> list[float]:
        """Fig. 5a: first/optimal cost ratios (optimally solved runs)."""
        return [
            run.cost_ratio for run in self.runs if run.cost_ratio is not None
        ]

    def time_ratios(self) -> list[float]:
        """Fig. 5b: first/optimal time ratios (optimally solved runs)."""
        return [
            run.time_ratio for run in self.runs if run.time_ratio is not None
        ]

    def merged_stats(self) -> SearchStats:
        """Fig. 6: pruning counters aggregated over every run."""
        merged = SearchStats()
        for run in self.runs:
            merged = merged.merge(run.stats)
        return merged

    def prune_shares(self) -> dict[PruneRule, float]:
        merged = self.merged_stats()
        return {rule: merged.prune_share(rule) for rule in PruneRule}

    def prune_heights(self) -> dict[PruneRule, float]:
        merged = self.merged_stats()
        return {rule: merged.mean_prune_height(rule) for rule in PruneRule}


def _study_instance(
    seed: int, scale: StudyScale
) -> Optional[GeneratedApplication]:
    """A small calibrated application on a randomly sized cluster."""
    rng = random.Random(seed)
    n_hosts = rng.randint(*scale.host_range)
    pes_per_host = rng.randint(*scale.pes_per_host_range)
    n_pes = max(2, (n_hosts * pes_per_host) // 2)
    params = GeneratorParams(n_pes=n_pes, tuple_budget=2000.0)
    cluster = ClusterParams(
        n_hosts=n_hosts, cores_per_host=pes_per_host
    )
    try:
        return generate_application(
            seed, params=params, cluster=cluster, name=f"study-{seed}"
        )
    except (WorkloadError, DeploymentError):
        # Tight slot counts can defeat the anti-affinity placement (all
        # but one host full); such instances are resampled.
        return None


def _instance_task(
    task: tuple[int, StudyScale],
) -> Optional[list[StudyRun]]:
    """Pool worker: one study instance — generate it (None when the seed
    defeats the placement) and run FT-Search for every IC target.

    The study reports first-solution ratios and per-rule prune shares
    and heights — statistics of the paper's depth-first visit order — so
    it runs the reference oracle, not the block engine."""
    seed, scale = task
    app = _study_instance(seed, scale)
    if app is None:
        return None
    runs = []
    for target in scale.ic_targets:
        result = ReferenceFTSearch(
            OptimizationProblem(app.deployment, ic_target=target),
            FTSearchConfig(time_limit=scale.time_limit),
        ).run()
        runs.append(_to_run(app, target, result))
    return runs


def run_ftsearch_study(
    scale: Optional[StudyScale] = None,
    jobs: Optional[int] = None,
) -> StudyResults:
    """Run the full Fig. 4-6 study grid.

    ``jobs`` fans instances out over a process pool (one task per
    instance; see :mod:`repro.experiments.parallel`). Seeds are scanned
    in ascending waves and results merged in seed order, so the set of
    instances — the first ``scale.instances`` viable seeds — is the same
    for every worker count; only wall-clock-derived fields (``elapsed``
    and the time ratios) can differ between runs.
    """
    scale = scale or StudyScale.from_env()
    n_jobs = resolve_jobs(jobs)
    wave = max(2 * n_jobs, 8) if n_jobs > 1 else 1
    runs: list[StudyRun] = []
    produced = 0
    seed = BASE_SEED
    while produced < scale.instances:
        tasks = [(s, scale) for s in range(seed, seed + wave)]
        seed += wave
        for instance_runs in run_tasks(_instance_task, tasks, jobs=n_jobs):
            if instance_runs is None:
                continue
            produced += 1
            runs.extend(instance_runs)
            if produced == scale.instances:
                break
    return StudyResults(scale, runs)


def _to_run(
    app: GeneratedApplication, target: float, result: SearchResult
) -> StudyRun:
    return StudyRun(
        app=app.name,
        n_hosts=len(app.deployment.host_names),
        n_pes=len(app.descriptor.graph.pes),
        ic_target=target,
        outcome=result.outcome,
        best_cost=result.best_cost,
        elapsed=result.elapsed,
        cost_ratio=result.cost_ratio_first_to_best,
        time_ratio=result.time_ratio_first_to_best,
        stats=result.stats,
    )
