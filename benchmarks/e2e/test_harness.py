"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload through the Python API at 4-8 tenants and checks the
harness, not the program: every declared metric is emitted by exactly
the workloads that should emit it, spans account for the pass, and
``--check`` fails on a slowdown beyond the bound.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

import e2e_workloads
import run
from e2e_compare import check_files
from e2e_metrics import SCOPED, benchmark_json

DECLARED = benchmark_json()
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One traced run per workload, shrunk to a handful of tenants."""
    patch = pytest.MonkeyPatch()
    patch.setattr(
        e2e_workloads,
        "GOLDEN_CATALOGUE",
        ((4105, 4116), (4106, 4128), (4108, 4114)),
    )
    patch.setattr(e2e_workloads, "ADMISSION_CATALOGUE", (5220,))
    patch.setattr(e2e_workloads, "ADMISSION_COPIES", 3)
    patch.setattr(e2e_workloads, "DATAPLANE_TENANTS", 8)
    patch.setattr(e2e_workloads, "ELASTIC_TENANTS", 8)
    patch.setattr(run, "OUT_DIR", tmp_path_factory.mktemp("out"))
    try:
        yield {
            name: run.run_workload(name, seed=5, seconds=0.0, passes=2, trace=True)
            for name in WORKLOAD_NAMES
        }
    finally:
        patch.undo()


def test_benchmark_json_matches_the_registry():
    assert WORKLOAD_NAMES == list(e2e_workloads.WORKLOADS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    per_layer = {entry["name"]: entry for entry in DECLARED["per_layer"]}
    for metric in SCOPED:
        assert per_layer[metric.name]["unit"] == metric.unit
        assert per_layer[metric.name]["better"] == metric.better
        assert set(metric.workloads) <= set(WORKLOAD_NAMES)
    assert "setup_s" in {entry["name"] for entry in DECLARED["end_to_end"]}


def test_every_run_is_correct(reports):
    for name, report in reports.items():
        assert report["failures"] == [], name
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] > 0


def test_end_to_end_metrics_come_from_exactly_their_workloads(reports):
    gates = {entry["name"] for entry in DECLARED["end_to_end"]}
    for name, report in reports.items():
        expected = gates | {m.name for m in SCOPED if name in m.workloads}
        assert set(report["end_to_end"]) == expected, name
        result = run.contract_result(report, trace=False)
        assert set(result["metrics"]) == gates
        for metric in sorted(gates):
            assert result["metrics"][metric]["value"] > 0, (name, metric)


def test_traced_run_emits_every_per_layer_metric(reports):
    declared = {entry["name"] for entry in DECLARED["per_layer"]}
    measured_somewhere: set[str] = set()
    for name, report in reports.items():
        result = run.contract_result(report, trace=True)
        assert set(result["metrics"]) == declared, name
        measured_somewhere |= set(report["per_layer"])
        measured_somewhere |= set(report["end_to_end"])
    # A declared name no workload ever computes is a typo, not a zero.
    assert declared <= measured_somewhere, sorted(declared - measured_somewhere)


def test_spans_sum_to_the_pass(reports):
    for name, report in reports.items():
        assert abs(report["span_coverage"] - 1.0) <= run.SPAN_COVERAGE, name
        assert report["per_layer"]["harness.spans"] > 0
        top, seconds = report["slices"][0]
        assert seconds > 0 and not top.startswith("harness."), (name, top)


def _result_file(reports, path, scale=1.0, seed=5):
    workloads = copy.deepcopy(reports)
    for report in workloads.values():
        wall = report["end_to_end"]["wall_s"]
        wall["value"] *= scale
        wall["samples"] = [sample * scale for sample in wall["samples"]]
    stamp = {
        "commit": "test",
        "cpu_count": 2,
        "seed": seed,
        "passes": 2,
        "sizes": {name: r["sizes"] for name, r in workloads.items()},
    }
    path.write_text(json.dumps({"stamp": stamp, "workloads": workloads}))
    return path


def test_check_flags_a_slowdown_and_refuses_a_mismatch(reports, tmp_path):
    # Make the pass-to-pass spread of this tiny run irrelevant.
    steady = copy.deepcopy(reports)
    for report in steady.values():
        for metric in report["end_to_end"].values():
            metric["samples"] = [metric["value"]] * len(metric["samples"])
    base = _result_file(steady, tmp_path / "A.json")
    same = _result_file(steady, tmp_path / "same.json")
    wall_bound = next(
        e["bound"] for e in DECLARED["end_to_end"] if e["name"] == "wall_s"
    )
    slow = _result_file(
        steady, tmp_path / "slow.json", scale=1.05 + wall_bound
    )
    other = _result_file(steady, tmp_path / "other.json", seed=6)
    assert check_files(base, same) == 0
    assert check_files(base, slow) == 1
    assert check_files(slow, base) == 0  # faster is not a regression
    assert check_files(base, other) == 2
