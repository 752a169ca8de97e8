"""Metric definitions: what `BENCHMARK.json` declares and what it cannot.

`BENCHMARK.json` is flat: every run of every workload must report every
``end_to_end`` metric, and none may be 0. Four of the benchmark's twelve
end-to-end metrics exist on all four workloads (``setup_s``, ``wall_s``,
``op_p50_ms``, ``peak_rss_mb``) and are declared there with their
bounds; the driver gates on them. The other eight exist only where the
workload has the thing they measure (no contracts on the data plane, no
tuples in the admission storm), so they are defined *here* with the
workloads they apply to, measured with tracing off like the rest,
printed by the suite command, compared by ``--check`` — and listed under
``per_layer`` in `BENCHMARK.json` (0 where they do not apply) so the
driver records them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["SCOPED", "Metric", "benchmark_json", "end_to_end_metrics"]

ROOT = Path(__file__).resolve().parents[2]

_CONTROL = ("golden_path", "admission_storm")
_DATA = ("golden_path", "dataplane_steady", "elastic_chaos")
_ALL = ("golden_path", "admission_storm", "dataplane_steady", "elastic_chaos")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: How far the median may worsen: a share of the baseline median,
    #: or an absolute difference for the exact simulated ratios.
    bound: float
    absolute: bool
    workloads: tuple[str, ...]


SCOPED: tuple[Metric, ...] = (
    # 32 ops leave fewer than ten samples beyond the 90th percentile.
    Metric("op_p90_ms", "ms", "lower", 0.15, False, _ALL[1:]),
    Metric("contracts_per_s", "1/s", "higher", 0.15, False, _CONTROL),
    Metric("sim_tuples_per_s", "1/s", "higher", 0.15, False, _DATA),
    Metric("failed_frac", "ratio", "lower", 0.0, True, _ALL),
    Metric("admitted_frac", "ratio", "higher", 0.002, True, _CONTROL),
    Metric("cost_saving_frac", "ratio", "higher", 0.002, True, _CONTROL),
    Metric("drop_frac", "ratio", "lower", 0.002, True, _DATA),
    Metric(
        "core_hours_saved_frac", "ratio", "higher", 0.002, True,
        ("elastic_chaos",),
    ),
)


def benchmark_json() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics() -> tuple[Metric, ...]:
    """All twelve: the four `BENCHMARK.json` gates, then the scoped."""
    declared = tuple(
        Metric(
            entry["name"],
            entry["unit"],
            entry["better"],
            entry["bound"],
            False,
            _ALL,
        )
        for entry in benchmark_json()["end_to_end"]
    )
    return declared + SCOPED
