"""Experiment drivers reproducing every figure of the evaluation.

* Fig. 3  — :mod:`repro.experiments.fig3` (pipeline demo, static vs LAAR)
* Fig. 4-6 — :mod:`repro.experiments.ftsearch_study`
* Fig. 9-12 — :mod:`repro.experiments.cluster`
* rendering — :mod:`repro.experiments.figures` / ``report``
"""

from repro.experiments.cluster import (
    ClusterResults,
    FailureMode,
    RunResult,
    run_cluster_experiment,
)
from repro.experiments.fig3 import (
    Fig3Data,
    Fig3Series,
    build_pipeline_application,
    run_fig3,
)
from repro.experiments.ftsearch_study import (
    StudyResults,
    StudyRun,
    run_ftsearch_study,
)
from repro.experiments.scale import ExperimentScale, StudyScale
from repro.experiments.stats import BoxStats
from repro.experiments.variants import (
    VariantSet,
    build_variants,
    laar_variant_name,
)

__all__ = [
    "ExperimentScale",
    "StudyScale",
    "BoxStats",
    "VariantSet",
    "build_variants",
    "laar_variant_name",
    "FailureMode",
    "RunResult",
    "ClusterResults",
    "run_cluster_experiment",
    "StudyResults",
    "StudyRun",
    "run_ftsearch_study",
    "Fig3Data",
    "Fig3Series",
    "build_pipeline_application",
    "run_fig3",
]
