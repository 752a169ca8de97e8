"""The cluster experiment runner (Sec. 5.3).

Runs every application of a corpus under every replication variant and
failure mode, mirroring the paper's methodology:

* **best case** — no failures; measures CPU time, drops (Fig. 9) and the
  output rate during the load peak (Fig. 10);
* **worst case** — a replica of each PE permanently crashed per the
  pessimistic model; measures processed tuples (Fig. 11, top);
* **host crash** — a random PE-hosting server crashes during a High
  window and recovers after 16 s; measures processed tuples (Fig. 11,
  bottom). Run on a sampled subset of the corpus, like the paper's 40.

Each mode's faults are :func:`repro.chaos.paper_schedule`'s, and every
run is a judged :class:`repro.chaos.runner.CampaignRun`. Figures are
normalised as in the paper: best case to the NR variant, failures to the
*failure-free* NR run.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.chaos.campaign import PAPER_MODES, paper_schedule
from repro.chaos.runner import CampaignRun
from repro.dsps.platform import PlatformConfig
from repro.dsps.traces import two_level_trace
from repro.errors import ExperimentError
from repro.experiments.parallel import run_tasks
from repro.experiments.scale import ExperimentScale, peak_window
from repro.experiments.variants import VariantSet, build_variants
from repro.laar.middleware import PAPER_MIDDLEWARE
from repro.workloads.generator import GeneratedApplication, generate_corpus

__all__ = [
    "FailureMode",
    "RunResult",
    "ClusterResults",
    "run_cluster_experiment",
    "run_variant",
]

#: First seed of the default corpus (the EDBT year, for determinism).
BASE_SEED = 2014
#: Sec. 5.2's input "glitches" and heartbeat period (the monitor triple
#: is ``PAPER_MIDDLEWARE``; the 1/3 High share is ``two_level_trace``'s
#: default and the 16 s crash downtime ``paper_schedule``'s).
ARRIVAL_JITTER = 0.35
HEARTBEAT_INTERVAL = 0.5


class FailureMode(enum.Enum):
    """The three failure scenarios of Sec. 5.3: the grid's row key, one
    per :data:`~repro.chaos.campaign.PAPER_MODES` entry, in its order."""

    BEST = "best-case"
    WORST = "worst-case"
    CRASH = "host-crash"


@dataclass(frozen=True)
class RunResult:
    """Scalar outcomes of one (application, variant, mode) run; the last
    four are the judge's (``min_ic_margin`` is ``None`` when no second
    was checked)."""

    app: str
    variant: str
    mode: FailureMode
    cpu_time: float
    drops: int
    processed: int
    output: int
    input: int
    peak_output_rate: float
    config_switches: int
    transition_s: float
    off_model_s: float
    below_floor_s: float
    min_ic_margin: Optional[float]


class ClusterResults:
    """All runs of one cluster experiment, with figure-ready views.

    ``variant_sets`` are the variant sets the runs deployed, kept by
    application name so a caller can run one more variant without
    searching again.
    """

    def __init__(
        self,
        scale: ExperimentScale,
        variant_names: tuple[str, ...],
        rows: Iterable[RunResult],
        variant_sets: Iterable[VariantSet] = (),
    ) -> None:
        self.scale = scale
        self.variant_names = variant_names
        self.variant_sets = {
            variants.app.name: variants for variants in variant_sets
        }
        self._rows: dict[tuple[str, str, FailureMode], RunResult] = {}
        for row in rows:
            self._rows[(row.app, row.variant, row.mode)] = row
        self.apps = tuple(
            sorted({app for app, _, _ in self._rows})
        )
        self.crash_apps = tuple(
            sorted(
                {
                    app
                    for app, _, mode in self._rows
                    if mode is FailureMode.CRASH
                }
            )
        )

    def get(
        self, app: str, variant: str, mode: FailureMode
    ) -> RunResult:
        try:
            return self._rows[(app, variant, mode)]
        except KeyError:
            raise ExperimentError(
                f"no run recorded for ({app}, {variant}, {mode.value})"
            ) from None

    # ------------------------------------------------------------------
    # Figure views (one list entry per application)
    # ------------------------------------------------------------------

    def normalized_cpu(self, variant: str) -> list[float]:
        """Fig. 9 (top): best-case CPU time relative to NR."""
        return [
            self.get(app, variant, FailureMode.BEST).cpu_time
            / self.get(app, "NR", FailureMode.BEST).cpu_time
            for app in self.apps
        ]

    def normalized_drops(self, variant: str) -> list[float]:
        """Fig. 9 (bottom): best-case drops relative to NR.

        NR can drop (near) zero tuples in simulation; the denominator is
        floored at one tuple so ratios stay finite (documented deviation
        from the paper, whose real cluster always had residual drops).
        """
        return [
            self.get(app, variant, FailureMode.BEST).drops
            / max(1, self.get(app, "NR", FailureMode.BEST).drops)
            for app in self.apps
        ]

    def peak_output_ratio(self, variant: str) -> list[float]:
        """Fig. 10: output rate during the load peak relative to NR."""
        return [
            self.get(app, variant, FailureMode.BEST).peak_output_rate
            / self.get(app, "NR", FailureMode.BEST).peak_output_rate
            for app in self.apps
        ]

    def measured_ic(
        self, variant: str, mode: FailureMode
    ) -> list[float]:
        """Fig. 11: processed tuples relative to the failure-free NR run."""
        if mode is FailureMode.BEST:
            raise ExperimentError("measured IC is a failure-mode metric")
        apps = self.crash_apps if mode is FailureMode.CRASH else self.apps
        return [
            self.get(app, variant, mode).processed
            / max(1, self.get(app, "NR", FailureMode.BEST).processed)
            for app in apps
        ]

    def below_floor_seconds(
        self, variant: str, mode: FailureMode
    ) -> list[float]:
        """Fig. 11's judge: checked seconds below the proven IC floor."""
        apps = self.crash_apps if mode is FailureMode.CRASH else self.apps
        return [self.get(app, variant, mode).below_floor_s for app in apps]


def _run_seed(app_seed: int, variant: str, mode: FailureMode) -> int:
    """The explicit per-run RNG seed (the host-crash draw).

    Derived from static task keys only, never from shared RNG state, so
    a run draws the same crash plan whether it executes serially or on
    any worker of the process pool.
    """
    variant_part = sum(ord(ch) * 31 ** i for i, ch in enumerate(variant))
    mode_part = list(FailureMode).index(mode)
    return (
        (BASE_SEED + 101) * 1_000_003
        + app_seed * 7919
        + variant_part * 13
        + mode_part
    )


def run_variant(
    variants: VariantSet,
    variant: str,
    mode: FailureMode,
    scale: ExperimentScale,
    seed: int,
) -> RunResult:
    """One (application, variant, failure-mode) run of the grid, judged;
    ``seed`` draws the host crash."""
    app = variants.app
    trace = two_level_trace(app.low_rate, app.high_rate, scale.trace_seconds)
    paper_mode = PAPER_MODES[list(FailureMode).index(mode)]
    metrics, digest = CampaignRun(
        app.deployment,
        variants.strategies[variant],
        {"src": trace},
        paper_schedule(
            paper_mode, app.deployment, trace, random.Random(seed)
        ),
        platform_config=PlatformConfig(
            arrival_jitter=ARRIVAL_JITTER,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            seed=app.seed * 7919 + 13,  # per-app deterministic glitches
        ),
        middleware_config=dataclasses.replace(
            PAPER_MIDDLEWARE, dynamic=variants.is_dynamic(variant)
        ),
    ).run()
    stats = digest["invariants"]["stats"]
    return RunResult(
        app=app.name,
        variant=variant,
        mode=mode,
        cpu_time=metrics.total_cpu_time,
        drops=metrics.logical_dropped,
        processed=metrics.tuples_processed,
        output=metrics.total_output,
        input=metrics.total_input,
        peak_output_rate=metrics.output_rate_in_window(*peak_window(trace)),
        config_switches=len(metrics.config_switches),
        transition_s=stats["seconds"]["transition"],
        off_model_s=stats["seconds"]["off_model"],
        below_floor_s=digest["slo"]["bad_seconds"],
        min_ic_margin=stats["min_ic_margin"],
    )


def _variant_task(
    task: tuple[GeneratedApplication, tuple[float, ...]],
) -> Optional[VariantSet]:
    """Pool worker: build one application's variant set (None = skip)."""
    app, ic_targets = task
    try:
        return build_variants(app, ic_targets=ic_targets)
    except ExperimentError:
        return None


def _run_task(
    task: tuple[VariantSet, str, FailureMode, ExperimentScale, int],
) -> RunResult:
    """Pool worker: one (application, variant, failure-mode) run."""
    return run_variant(*task)


def run_cluster_experiment(
    scale: Optional[ExperimentScale] = None,
    corpus: Optional[list[GeneratedApplication]] = None,
    jobs: Optional[int] = None,
) -> ClusterResults:
    """Run the full Sec. 5.3 experiment grid.

    Applications whose variants cannot be built (no feasible strategy
    within FT-Search's node budget) are skipped, like failed deployments
    in the paper's corpus.

    ``jobs`` fans the grid out over a process pool (two phases: variant
    construction per application, then one task per (application,
    variant, failure-mode) run); results are independent of the worker
    count — see :mod:`repro.experiments.parallel` for the resolution
    order of ``jobs`` / ``REPRO_JOBS``.
    """
    scale = scale or ExperimentScale.from_env()
    if corpus is None:
        corpus = generate_corpus(scale.corpus_size, BASE_SEED)

    built = run_tasks(
        _variant_task,
        [(app, scale.ic_targets) for app in corpus],
        jobs=jobs,
    )

    tasks: list[tuple[VariantSet, str, FailureMode, ExperimentScale, int]] = []
    variant_names: tuple[str, ...] = ()
    usable: list[VariantSet] = []
    for variants in built:
        if variants is None:
            continue
        usable.append(variants)
        variant_names = variants.names
        # Like the paper's 40-app crash subset: the first
        # crash_corpus_size usable applications, in corpus order.
        modes = [FailureMode.BEST, FailureMode.WORST]
        if len(usable) <= scale.crash_corpus_size:
            modes.append(FailureMode.CRASH)
        for variant in variants.names:
            for mode in modes:
                seed = _run_seed(variants.app.seed, variant, mode)
                tasks.append((variants, variant, mode, scale, seed))
    if not tasks:
        raise ExperimentError(
            "no application in the corpus produced a full variant set"
        )
    rows = run_tasks(_run_task, tasks, jobs=jobs)
    return ClusterResults(scale, variant_names, rows, usable)
