"""Shared benchmark fixtures: experiment results run once per session
and a writer that persists every regenerated figure under
``benchmarks/results/``."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    run_cluster_experiment,
    run_fig3,
    run_ftsearch_study,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def cluster_results():
    """The Sec. 5.3 experiment grid (Figs. 9-12), run once per session."""
    return run_cluster_experiment()


@pytest.fixture(scope="session")
def study_results():
    """The FT-Search study (Figs. 4-6), run once per session."""
    return run_ftsearch_study()


@pytest.fixture(scope="session")
def fig3_data():
    return run_fig3()


@pytest.fixture(scope="session")
def save_figure():
    RESULTS_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return save
