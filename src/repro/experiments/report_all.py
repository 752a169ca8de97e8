"""One-shot report generation: every reproduced figure in one document.

``generate_report()`` runs the Fig. 3 demo, the FT-Search study, and
the cluster experiment grid, and concatenates all rendered figures into
a single plain-text report — the artifact ``python -m repro experiment
all`` writes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments import figures
from repro.experiments.cluster import run_cluster_experiment
from repro.experiments.fig3 import run_fig3
from repro.experiments.ftsearch_study import run_ftsearch_study
from repro.experiments.scale import ExperimentScale, StudyScale

__all__ = ["generate_report"]

_HEADER = """\
LAAR reproduction report
========================

Regenerated figures for: Bellavista, Corradi, Reale, Kotoulas —
"Adaptive Fault-Tolerance for Dynamic Resource Provisioning in
Distributed Stream Processing Systems" (EDBT 2014).

Scales: {cluster} applications on {trace:.0f} s traces (Figs. 9-12);
{study} FT-Search instances per IC target (Figs. 4-6).
Paper-vs-measured commentary lives in EXPERIMENTS.md.
"""


def generate_report(
    path: Optional[str | Path] = None,
    cluster_scale: Optional[ExperimentScale] = None,
    study_scale: Optional[StudyScale] = None,
    jobs: Optional[int] = None,
) -> str:
    """Render every figure into one report; optionally write it to a file.

    ``jobs`` fans the underlying experiment grids out over a process
    pool (see :mod:`repro.experiments.parallel`).
    """
    cluster_scale = cluster_scale or ExperimentScale.from_env()
    study_scale = study_scale or StudyScale.from_env()

    fig3 = run_fig3()
    study = run_ftsearch_study(study_scale, jobs=jobs)
    cluster = run_cluster_experiment(cluster_scale, jobs=jobs)

    sections = [
        _HEADER.format(
            cluster=cluster_scale.corpus_size,
            trace=cluster_scale.trace_seconds,
            study=study_scale.instances,
        ),
        figures.render_fig3(fig3),
        figures.render_fig4(study),
        figures.render_fig5(study),
        figures.render_fig6(study),
        figures.render_fig9(cluster),
        figures.render_fig10(cluster),
        figures.render_fig11(cluster),
        figures.render_fig12(cluster),
    ]
    report = ("\n\n" + "-" * 72 + "\n\n").join(sections) + "\n"
    if path is not None:
        Path(path).write_text(report)
    return report
