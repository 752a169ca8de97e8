"""Compare fresh BENCH_*.json reports against a committed baseline.

Each benchmark nominates one headline throughput metric (higher is
better). The gate fails when a fresh run regresses more than the
threshold (default 30%) below the baseline — loose enough to absorb
runner noise, tight enough to catch an accidental O(n) -> O(n^2).

A report file is either one flat report carrying its ``mode``, or one
section per mode (``{"full": {...}, "smoke": {...}}``, as
``bench_ftsearch.py`` writes). Only like modes are compared: a metric
whose baseline and fresh run share no mode (e.g. a committed full-mode
report diffed against a ``--smoke`` CI run) is reported but not gated —
the workloads are not comparable.

Usage::

    python benchmarks/perf/compare.py \
        --baseline /path/to/committed --fresh benchmarks/perf
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional

# benchmark stem -> list of (metric label, extractor). Extractors
# return a higher-is-better throughput number, or None if the report
# lacks it; each metric is gated independently.
HEADLINE = {
    "BENCH_ftsearch": [
        (
            "vector_nodes_per_sec",
            lambda report: report.get("vector_nodes_per_sec"),
        ),
        (
            "parallel_nodes_per_sec",
            lambda report: report.get("parallel_nodes_per_sec"),
        ),
        (
            "efficiency",
            lambda report: report.get("efficiency"),
        ),
    ],
    "BENCH_experiments": [
        (
            "grid_runs_per_sec",
            lambda report: (
                report["grid_runs"] / report["serial_seconds"]
                if report.get("grid_runs") and report.get("serial_seconds")
                else None
            ),
        ),
    ],
    "BENCH_obs": [
        (
            "emits_per_sec",
            lambda report: (
                1.0e6 / report["emit_us"] if report.get("emit_us") else None
            ),
        ),
        (
            "slo_ingest_per_sec",
            lambda report: (
                1.0e6 / report["slo_ingest_us"]
                if report.get("slo_ingest_us")
                else None
            ),
        ),
        (
            "slo_on_tuples_per_sec",
            lambda report: report.get("dataplane_slo", {})
            .get("slo_on", {})
            .get("tuples_per_sec"),
        ),
    ],
    "BENCH_sim": [
        (
            "batched_tuples_per_sec",
            lambda report: report.get("fleet_slice", {}).get(
                "batched_tuples_per_sec"
            ),
        ),
    ],
}


def _load(path: Path) -> Optional[dict[str, Any]]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def _row(benchmark: str, metric: str, status: str) -> dict[str, Any]:
    return {
        "benchmark": benchmark,
        "metric": metric,
        "baseline": None,
        "fresh": None,
        "delta": None,
        "status": status,
    }


def _by_mode(report: dict[str, Any]) -> dict[Optional[str], dict[str, Any]]:
    """A report file as ``{mode: flat report}`` (one entry when flat)."""
    if "mode" in report or not all(
        isinstance(section, dict) and section.get("mode") == mode
        for mode, section in report.items()
    ):
        return {report.get("mode"): report}
    return dict(report)


def compare_reports(
    baseline_dir: Path, fresh_dir: Path, threshold: float
) -> tuple[list[dict[str, Any]], list[str]]:
    """Compare every known benchmark; returns (rows, failures)."""
    rows: list[dict[str, Any]] = []
    failures: list[str] = []
    for stem, metrics in sorted(HEADLINE.items()):
        name = f"{stem}.json"
        baseline = _load(baseline_dir / name)
        fresh = _load(fresh_dir / name)
        if baseline is None or fresh is None:
            status = "no baseline" if baseline is None else "no fresh run"
            rows.extend(_row(stem, label, status) for label, _ in metrics)
            continue
        baseline_modes = _by_mode(baseline)
        fresh_modes = _by_mode(fresh)
        shared = [mode for mode in baseline_modes if mode in fresh_modes]
        if not shared:
            status = (
                f"skipped (mode {'/'.join(map(repr, baseline_modes))} vs"
                f" {'/'.join(map(repr, fresh_modes))})"
            )
            rows.extend(_row(stem, label, status) for label, _ in metrics)
            continue
        for mode in shared:
            title = stem if len(baseline_modes) == 1 else f"{stem}[{mode}]"
            for label, extract in metrics:
                row = _row(title, label, "ok")
                row["baseline"] = extract(baseline_modes[mode])
                row["fresh"] = extract(fresh_modes[mode])
                rows.append(row)
                if not row["baseline"] or row["fresh"] is None:
                    row["status"] = "skipped (metric missing)"
                    continue
                delta = (row["fresh"] - row["baseline"]) / row["baseline"]
                row["delta"] = delta
                if delta < -threshold:
                    row["status"] = f"REGRESSION (> {threshold:.0%} slower)"
                    failures.append(
                        f"{title}: {label} fell {-delta:.1%}"
                        f" ({row['baseline']:.1f} -> {row['fresh']:.1f})"
                    )
    return rows, failures


def render_table(rows: list[dict[str, Any]]) -> str:
    def fmt(value: Optional[float]) -> str:
        return (
            f"{value:,.1f}" if isinstance(value, (int, float)) else "-"
        )

    header = (
        f"{'benchmark':<20} {'metric':<18} {'baseline':>12}"
        f" {'fresh':>12} {'delta':>8}  status"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        delta = (
            f"{row['delta']:+.1%}" if row["delta"] is not None else "-"
        )
        lines.append(
            f"{row['benchmark']:<20} {row['metric']:<18}"
            f" {fmt(row['baseline']):>12} {fmt(row['fresh']):>12}"
            f" {delta:>8}  {row['status']}"
        )
    return "\n".join(lines)


def render_markdown(rows: list[dict[str, Any]]) -> str:
    """One markdown table row per metric, for ``$GITHUB_STEP_SUMMARY``."""

    def fmt(value: Optional[float]) -> str:
        return (
            f"{value:,.1f}" if isinstance(value, (int, float)) else "-"
        )

    lines = [
        "### Benchmark comparison",
        "",
        "| benchmark | metric | baseline | fresh | delta | status |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        delta = (
            f"{row['delta']:+.1%}" if row["delta"] is not None else "-"
        )
        lines.append(
            f"| {row['benchmark']} | {row['metric']}"
            f" | {fmt(row['baseline'])} | {fmt(row['fresh'])}"
            f" | {delta} | {row['status']} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, type=Path,
        help="directory holding the committed BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh", required=True, type=Path,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="maximum tolerated fractional throughput drop (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error("--threshold must be in (0, 1)")

    rows, failures = compare_reports(
        args.baseline, args.fresh, args.threshold
    )
    print(render_table(rows))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(rows))
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nno throughput regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
