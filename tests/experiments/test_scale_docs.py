"""Documentation-consistency checks for the scale knobs.

The README and the scale module both promise environment-variable
overrides; these tests keep the promise list and the implementation in
sync (a stale doc here would silently strand users at laptop scale).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentScale, StudyScale
from repro.experiments import scale as scale_module

ENV_KNOBS = (
    "REPRO_CORPUS_SIZE",
    "REPRO_CRASH_CORPUS",
    "REPRO_TRACE_SECONDS",
    "REPRO_STUDY_SIZE",
    "REPRO_JOBS",
)


@pytest.mark.parametrize("knob", ENV_KNOBS)
def test_every_knob_is_documented_in_the_module(knob):
    assert knob in (scale_module.__doc__ or ""), (
        f"{knob} missing from repro.experiments.scale docstring"
    )


@pytest.mark.parametrize("knob", ENV_KNOBS)
def test_every_knob_is_actually_read(knob, monkeypatch):
    """Setting the variable must change the corresponding scale field."""
    if knob == "REPRO_JOBS":
        # Not a scale field: read by the parallel fabric instead.
        from repro.experiments.parallel import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        return
    values = {
        "REPRO_CORPUS_SIZE": ("corpus_size", "7", 7, ExperimentScale),
        "REPRO_CRASH_CORPUS": ("crash_corpus_size", "2", 2, ExperimentScale),
        "REPRO_TRACE_SECONDS": (
            "trace_seconds", "44.5", 44.5, ExperimentScale,
        ),
        "REPRO_STUDY_SIZE": ("instances", "5", 5, StudyScale),
    }
    field, raw, expected, scale_class = values[knob]
    monkeypatch.setenv(knob, raw)
    scale = scale_class.from_env()
    assert getattr(scale, field) == expected


def test_experiments_md_mentions_scaling():
    text = Path(__file__).parents[2].joinpath("EXPERIMENTS.md").read_text()
    assert "REPRO_" in text


def test_readme_mentions_scaling():
    text = Path(__file__).parents[2].joinpath("README.md").read_text()
    assert "REPRO_CORPUS_SIZE" in text
