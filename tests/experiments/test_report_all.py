"""Tests for the consolidated report generator (tiny scales)."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale, StudyScale
from repro.experiments.report_all import generate_report


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    cluster_scale = ExperimentScale(
        corpus_size=2,
        crash_corpus_size=1,
        trace_seconds=30.0,
        ft_time_limit=1.0,
        ic_targets=(0.5,),
    )
    study_scale = StudyScale(
        instances=3,
        ic_targets=(0.5, 0.9),
        time_limit=0.5,
        host_range=(2, 3),
        pes_per_host_range=(2, 4),
    )
    path = tmp_path_factory.mktemp("report") / "REPORT.md"
    text = generate_report(
        path=path, cluster_scale=cluster_scale, study_scale=study_scale
    )
    return path, text


class TestGenerateReport:
    def test_file_written(self, tiny_report):
        path, text = tiny_report
        assert path.read_text() == text

    def test_contains_every_figure(self, tiny_report):
        _, text = tiny_report
        for marker in (
            "Fig. 3",
            "Fig. 4",
            "Fig. 5",
            "Fig. 6",
            "Fig. 9 (top)",
            "Fig. 10",
            "Fig. 11 (top)",
            "Fig. 12",
        ):
            assert marker in text, f"missing {marker}"

    def test_header_mentions_scales(self, tiny_report):
        _, text = tiny_report
        assert "2 applications on 30 s traces" in text
        assert "3 FT-Search instances" in text
