"""Integration tests of the FT-Search study driver (tiny scale)."""

from __future__ import annotations

import pytest

from repro.core.optimizer import PruneRule, SearchOutcome
from repro.errors import ExperimentError
from repro.experiments import StudyScale, run_ftsearch_study


@pytest.fixture(scope="module")
def tiny_study():
    scale = StudyScale(
        instances=4,
        ic_targets=(0.5, 0.9),
        host_range=(2, 3),
        pes_per_host_range=(2, 4),
    )
    return run_ftsearch_study(scale)


class TestScale:
    def test_validation(self):
        """Each refusal names the field it refuses."""
        for field, kwargs in (
            ("instances", dict(instances=0)),
            ("ic_targets", dict(ic_targets=())),
            ("ic_targets", dict(ic_targets=(1.5,))),
            ("host_range", dict(host_range=(1, 3))),
            ("host_range", dict(host_range=(4, 2))),
            ("pes_per_host_range", dict(pes_per_host_range=(0, 0))),
            ("pes_per_host_range", dict(pes_per_host_range=(6, 2))),
        ):
            with pytest.raises(ExperimentError, match=field):
                StudyScale(**kwargs)

    def test_a_scale_no_seed_can_place_raises(self):
        """Regression: the seed scan used to loop forever when every
        instance of the scale defeated the anti-affinity placement."""
        scale = StudyScale(
            instances=1, host_range=(2, 2), pes_per_host_range=(1, 1)
        )
        with pytest.raises(ExperimentError, match="placed 0 of 1"):
            run_ftsearch_study(scale, jobs=1)


class TestStudy:
    def test_run_count(self, tiny_study):
        assert len(tiny_study.runs) == 4 * 2

    def test_outcome_counts_partition_runs(self, tiny_study):
        for target in (0.5, 0.9):
            counts = tiny_study.outcome_counts(target)
            assert sum(counts.values()) == 4
            assert all(isinstance(k, SearchOutcome) for k in counts)

    def test_ratios_only_from_optimal_runs(self, tiny_study):
        optimal = [
            run
            for run in tiny_study.runs
            if run.outcome is SearchOutcome.OPTIMAL
        ]
        assert len(tiny_study.cost_ratios()) <= len(optimal)
        for ratio in tiny_study.cost_ratios():
            assert ratio >= 1.0 - 1e-9
        for ratio in tiny_study.node_ratios():
            assert 0.0 < ratio <= 1.0 + 1e-9

    def test_merged_stats_accumulate(self, tiny_study):
        merged = tiny_study.merged_stats()
        assert merged.nodes_expanded == sum(
            run.stats.nodes_expanded for run in tiny_study.runs
        )

    def test_prune_shares_normalised(self, tiny_study):
        shares = tiny_study.prune_shares()
        if tiny_study.merged_stats().total_prunes:
            assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == set(PruneRule)

    def test_instances_record_shape(self, tiny_study):
        for run in tiny_study.runs:
            assert run.n_hosts >= 2
            assert run.n_pes >= 2
