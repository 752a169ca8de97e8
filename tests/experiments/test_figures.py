"""Unit tests for the figure builders, on hand-crafted results.

These cover the figure arithmetic (normalisations, summaries, renderers)
without running any simulation: a synthetic :class:`ClusterResults` with
known numbers makes every expected ratio computable by hand.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import SearchOutcome
from repro.experiments import ExperimentScale, FailureMode
from repro.experiments.cluster import ClusterResults, RunResult
from repro.experiments.figures import (
    fig9_cpu,
    fig9_drops,
    fig10_peak_output,
    fig11_host_crash,
    fig11_worst_case,
    fig12_summary,
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
)

VARIANTS = ("NR", "SR", "L.5")


def run_row(app, variant, mode, cpu, drops, processed, peak, below=0.0):
    return RunResult(
        app=app,
        variant=variant,
        mode=mode,
        cpu_time=cpu,
        drops=drops,
        processed=processed,
        output=processed,
        input=1000,
        peak_output_rate=peak,
        config_switches=0,
        transition_s=0.0,
        off_model_s=0.0,
        below_floor_s=below,
        min_ic_margin=None,
    )


@pytest.fixture
def synthetic_results():
    """Two apps; NR is the 100-cpu / 10-peak reference everywhere."""
    rows = []
    for app in ("app-a", "app-b"):
        # best case
        rows.append(run_row(app, "NR", FailureMode.BEST, 100.0, 2, 1000, 10.0))
        rows.append(run_row(app, "SR", FailureMode.BEST, 190.0, 60, 1000, 7.0))
        rows.append(run_row(app, "L.5", FailureMode.BEST, 150.0, 4, 1000, 9.5))
        # worst case
        rows.append(run_row(app, "NR", FailureMode.WORST, 50.0, 0, 0, 0.0))
        rows.append(run_row(app, "SR", FailureMode.WORST, 120.0, 10, 950, 6.0))
        rows.append(
            run_row(app, "L.5", FailureMode.WORST, 90.0, 2, 530, 8.0, 0.5)
        )
    # crash mode only for app-a
    rows.append(run_row("app-a", "NR", FailureMode.CRASH, 80.0, 1, 800, 8.0))
    rows.append(run_row("app-a", "SR", FailureMode.CRASH, 170.0, 20, 940, 6.5))
    rows.append(run_row("app-a", "L.5", FailureMode.CRASH, 140.0, 3, 900, 9.0))
    return ClusterResults(
        ExperimentScale(corpus_size=2, crash_corpus_size=1),
        VARIANTS,
        rows,
    )


class TestFig9:
    def test_cpu_ratios(self, synthetic_results):
        stats = fig9_cpu(synthetic_results)
        assert stats["NR"].mean == pytest.approx(1.0)
        assert stats["SR"].mean == pytest.approx(1.9)
        assert stats["L.5"].mean == pytest.approx(1.5)

    def test_drop_ratios(self, synthetic_results):
        stats = fig9_drops(synthetic_results)
        assert stats["SR"].mean == pytest.approx(30.0)
        assert stats["L.5"].mean == pytest.approx(2.0)

    def test_render(self, synthetic_results):
        text = render_fig9(synthetic_results)
        assert "Fig. 9 (top)" in text and "Fig. 9 (bottom)" in text
        assert "1.900" in text


class TestFig10:
    def test_peak_ratios(self, synthetic_results):
        stats = fig10_peak_output(synthetic_results)
        assert stats["SR"].mean == pytest.approx(0.7)
        assert stats["L.5"].mean == pytest.approx(0.95)

    def test_render(self, synthetic_results):
        assert "load peak" in render_fig10(synthetic_results)


class TestFig11:
    def test_worst_case_ic(self, synthetic_results):
        stats = fig11_worst_case(synthetic_results)
        assert stats["NR"].mean == pytest.approx(0.0)
        assert stats["SR"].mean == pytest.approx(0.95)
        assert stats["L.5"].mean == pytest.approx(0.53)

    def test_crash_uses_subset(self, synthetic_results):
        stats = fig11_host_crash(synthetic_results)
        # Only app-a has crash rows: one sample per variant.
        assert stats["L.5"].count == 1
        assert stats["L.5"].mean == pytest.approx(0.9)

    def test_below_floor_seconds_per_mode(self, synthetic_results):
        below = synthetic_results.below_floor_seconds
        assert below("L.5", FailureMode.WORST) == [0.5, 0.5]
        assert below("L.5", FailureMode.CRASH) == [0.0]  # app-a only

    def test_render(self, synthetic_results):
        text = render_fig11(synthetic_results)
        assert "worst-case" in text and "host crash" in text
        assert "below the proven IC floor" in text
        assert "L.5      1.000       0.000" in text


class TestFig12:
    def test_summary_normalisation(self, synthetic_results):
        summary = fig12_summary(synthetic_results)
        assert summary["SR"]["cost_vs_SR"] == pytest.approx(1.0)
        assert summary["SR"]["drops_vs_SR"] == pytest.approx(1.0)
        assert summary["L.5"]["cost_vs_SR"] == pytest.approx(1.5 / 1.9)
        assert summary["L.5"]["drops_vs_SR"] == pytest.approx(2.0 / 30.0)
        assert summary["L.5"]["worst_case_ic"] == pytest.approx(0.53)

    def test_render(self, synthetic_results):
        text = render_fig12(synthetic_results)
        assert "normalized w.r.t. SR" in text


class TestOutcomeHelpers:
    def test_outcome_share(self):
        from repro.experiments import StudyScale
        from repro.experiments.figures import outcome_share
        from repro.experiments.ftsearch_study import StudyResults, StudyRun
        from repro.core.optimizer import SearchStats

        scale = StudyScale(instances=2, ic_targets=(0.5,))
        runs = [
            StudyRun(
                app="a", n_hosts=2, n_pes=4, ic_target=0.5,
                outcome=SearchOutcome.OPTIMAL, best_cost=1.0,
                cost_ratio=1.0, node_ratio=0.5, stats=SearchStats(),
            ),
            StudyRun(
                app="b", n_hosts=2, n_pes=4, ic_target=0.5,
                outcome=SearchOutcome.INFEASIBLE, best_cost=float("inf"),
                cost_ratio=None, node_ratio=None,
                stats=SearchStats(),
            ),
        ]
        study = StudyResults(scale, runs)
        shares = outcome_share(study, SearchOutcome.OPTIMAL)
        assert shares[0.5] == pytest.approx(0.5)
