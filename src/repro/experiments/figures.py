"""Figure builders: turn experiment results into the paper's data series.

Each ``figN_*`` function maps a :class:`ClusterResults` or
:class:`StudyResults` to exactly the distributions or series the
corresponding paper figure plots, and each ``render_figN`` produces the
text table the benchmark harness prints.
"""

from __future__ import annotations

from repro.core.optimizer import SearchOutcome
from repro.experiments.cluster import ClusterResults, FailureMode
from repro.experiments.fig3 import Fig3Data
from repro.experiments.ftsearch_study import StudyResults
from repro.experiments.report import (
    format_box_table,
    format_outcome_table,
    format_prune_table,
    format_series,
    format_table,
)
from repro.experiments.stats import BoxStats

__all__ = [
    "fig9_cpu",
    "fig9_drops",
    "fig10_peak_output",
    "fig11_worst_case",
    "fig11_host_crash",
    "fig12_summary",
    "render_fig3",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_fig9",
    "render_fig10",
    "render_fig11",
    "render_fig12",
]


# ----------------------------------------------------------------------
# Cluster figures (9-12)
# ----------------------------------------------------------------------

def fig9_cpu(results: ClusterResults) -> dict[str, BoxStats]:
    """Fig. 9 (top): best-case CPU time vs NR, per variant."""
    return {
        variant: BoxStats.from_values(results.normalized_cpu(variant))
        for variant in results.variant_names
    }


def fig9_drops(results: ClusterResults) -> dict[str, BoxStats]:
    """Fig. 9 (bottom): best-case drops vs NR, per variant."""
    return {
        variant: BoxStats.from_values(results.normalized_drops(variant))
        for variant in results.variant_names
    }


def fig10_peak_output(results: ClusterResults) -> dict[str, BoxStats]:
    """Fig. 10: peak-window output rate vs NR, per variant."""
    return {
        variant: BoxStats.from_values(results.peak_output_ratio(variant))
        for variant in results.variant_names
    }


def fig11_worst_case(results: ClusterResults) -> dict[str, BoxStats]:
    """Fig. 11 (top): worst-case measured IC, per variant."""
    return {
        variant: BoxStats.from_values(
            results.measured_ic(variant, FailureMode.WORST)
        )
        for variant in results.variant_names
    }


def fig11_host_crash(results: ClusterResults) -> dict[str, BoxStats]:
    """Fig. 11 (bottom): host-crash measured IC, per variant."""
    return {
        variant: BoxStats.from_values(
            results.measured_ic(variant, FailureMode.CRASH)
        )
        for variant in results.variant_names
    }


def fig12_summary(results: ClusterResults) -> dict[str, dict[str, float]]:
    """Mean drops / IC / cost per variant, normalized w.r.t. SR."""
    sr_drops = BoxStats.from_values(results.normalized_drops("SR")).mean
    sr_cost = BoxStats.from_values(results.normalized_cpu("SR")).mean
    summary: dict[str, dict[str, float]] = {}
    for variant in results.variant_names:
        drops = BoxStats.from_values(results.normalized_drops(variant)).mean
        cost = BoxStats.from_values(results.normalized_cpu(variant)).mean
        ic = BoxStats.from_values(
            results.measured_ic(variant, FailureMode.WORST)
        ).mean
        summary[variant] = {
            "drops_vs_SR": drops / sr_drops if sr_drops else 0.0,
            "worst_case_ic": ic,
            "cost_vs_SR": cost / sr_cost if sr_cost else 0.0,
        }
    return summary


def render_fig9(results: ClusterResults) -> str:
    """Both Fig. 9 panels as text tables."""
    top = format_box_table(
        "Fig. 9 (top) - best-case total CPU time, normalized to NR",
        fig9_cpu(results),
        value_label="CPU ratio",
    )
    bottom = format_box_table(
        "Fig. 9 (bottom) - best-case tuples dropped, normalized to NR",
        fig9_drops(results),
        value_label="drop ratio",
    )
    return top + "\n\n" + bottom


def render_fig10(results: ClusterResults) -> str:
    """Fig. 10 as a text table."""
    return format_box_table(
        "Fig. 10 - output rate during the load peak, normalized to NR",
        fig10_peak_output(results),
        value_label="rate ratio",
    )


def render_fig11(results: ClusterResults) -> str:
    """Both Fig. 11 panels as text tables."""
    top = format_box_table(
        "Fig. 11 (top) - worst-case tuples processed vs failure-free NR",
        fig11_worst_case(results),
        value_label="measured IC",
    )
    bottom = format_box_table(
        "Fig. 11 (bottom) - single host crash (16 s recovery, in High)",
        fig11_host_crash(results),
        value_label="measured IC",
    )
    modes = (FailureMode.WORST, FailureMode.CRASH)
    judged = format_table(
        ["variant"] + [mode.value for mode in modes],
        [
            [v] + [sum(results.below_floor_seconds(v, m)) for m in modes]
            for v in results.variant_names
        ],
        title="Fig. 11 (judge) - checked seconds below the proven IC floor,"
        " summed over applications",
    )
    return top + "\n\n" + bottom + "\n\n" + judged


def render_fig12(results: ClusterResults) -> str:
    """Fig. 12 as a text table."""
    summary = fig12_summary(results)
    rows = [
        [
            variant,
            values["drops_vs_SR"],
            values["worst_case_ic"],
            values["cost_vs_SR"],
        ]
        for variant, values in summary.items()
    ]
    return format_table(
        ["variant", "drops vs SR", "worst-case IC", "cost vs SR"],
        rows,
        title="Fig. 12 - summary (means normalized w.r.t. SR)",
    )


# ----------------------------------------------------------------------
# FT-Search study figures (4-6)
# ----------------------------------------------------------------------

def render_fig4(study: StudyResults) -> str:
    """Fig. 4 as a text table."""
    counts = {
        target: study.outcome_counts(target)
        for target in study.scale.ic_targets
    }
    return format_outcome_table(
        "Fig. 4 - FT-Search outcome classes vs IC constraint", counts
    )


def render_fig5(study: StudyResults) -> str:
    """Fig. 5 as a text table; its time ratio counts nodes expanded."""
    cost_ratios = study.cost_ratios()
    node_ratios = study.node_ratios()
    if not cost_ratios:
        return (
            "Fig. 5 - no instance was solved to optimality within"
            " ftsearch_study.NODE_LIMIT nodes"
        )
    rows = [
        [
            label,
            BoxStats.from_values(ratios).mean,
            min(ratios),
            max(ratios),
            len(ratios),
        ]
        for label, ratios in (
            ("cost first/optimal", cost_ratios),
            ("nodes first/optimal", node_ratios),
        )
    ]
    return format_table(
        ["ratio", "mean", "min", "max", "instances"],
        rows,
        title=(
            "Fig. 5 - first solution vs optimum"
            " (paper: cost mean ~1.057, time mean ~0.37)"
        ),
    )


def render_fig6(study: StudyResults) -> str:
    """Fig. 6 as a text table."""
    return format_prune_table(
        "Fig. 6 - pruning effectiveness (all runs merged)",
        study.prune_shares(),
        study.prune_heights(),
    )


def render_fig3(data: Fig3Data) -> str:
    """Both Fig. 3 panels (time series + switch log) as text."""
    panels = []
    for series in (data.static, data.laar):
        panels.append(
            format_series(
                f"Fig. 3 - {series.variant}: input/output rate and CPU",
                series.seconds,
                {
                    "in t/s": series.input_rate,
                    "out t/s": series.output_rate,
                    "cpu": series.cpu_utilization,
                    "lat s": series.mean_latency,
                },
            )
        )
        if series.config_switches:
            switches = ", ".join(
                f"t={t:.0f}s->c{c}" for t, c in series.config_switches
            )
            panels.append(f"configuration switches: {switches}")
    return "\n\n".join(panels)


def outcome_share(
    study: StudyResults, outcome: SearchOutcome
) -> dict[float, float]:
    """Fraction of runs ending in ``outcome`` per IC target (Fig. 4)."""
    shares = {}
    for target in study.scale.ic_targets:
        counts = study.outcome_counts(target)
        total = sum(counts.values())
        shares[target] = counts[outcome] / total if total else 0.0
    return shares
