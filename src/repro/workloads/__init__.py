"""Synthetic workloads: the application generator and corpora of Sec. 5.2."""

from repro.workloads.generator import (
    ClusterParams,
    GeneratedApplication,
    GeneratorParams,
    generate_application,
    generate_corpus,
)
from repro.workloads.corpus import (
    BUNDLE_FORMAT,
    bundle_from_dict,
    bundle_to_dict,
    load_bundle,
    save_bundle,
)
from repro.workloads.profiling import (
    infer_source_rates,
    measured_edge_profile,
    profile_application,
    windowed_rates,
)

__all__ = [
    "GeneratorParams",
    "ClusterParams",
    "GeneratedApplication",
    "generate_application",
    "generate_corpus",
    "BUNDLE_FORMAT",
    "bundle_to_dict",
    "bundle_from_dict",
    "save_bundle",
    "load_bundle",
    "windowed_rates",
    "infer_source_rates",
    "measured_edge_profile",
    "profile_application",
]
