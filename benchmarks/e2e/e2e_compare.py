"""``run.py --check A.json B.json``: did B hold A's numbers?

One row per (end-to-end metric, workload), judged by the rule of the
choosing-metrics guide: B's median may be worse than A's by at most the
metric's bound; where the pass-to-pass spread of either side is wider
than the bound the row is ``unresolved`` rather than ``ok`` — unless
every pass of one side beats every pass of the other, which settles it.
Files that were not measured the same way (sizes, seed, core count, pass
count) are refused, not compared row by row.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from e2e_harness import quartiles
from e2e_metrics import Metric, end_to_end_metrics

__all__ = ["check_files", "verdict"]

#: Stamp fields that must agree for two files to be comparable.
SAME = ("sizes", "seed", "cpu_count", "passes")


def verdict(metric: Metric, a: dict[str, Any], b: dict[str, Any]) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one row."""
    sign = 1.0 if metric.better == "lower" else -1.0
    scale = 1.0 if metric.absolute else abs(a["value"])
    if scale == 0.0:
        scale = 1.0
    worse = sign * (b["value"] - a["value"]) / scale
    spread = max(q3 - q1 for q1, q3 in (quartiles(a["samples"]), quartiles(b["samples"])))
    if spread / scale <= metric.bound:
        return "regressed" if worse > metric.bound else "ok"
    a_cost = [sign * x for x in a["samples"]]
    b_cost = [sign * x for x in b["samples"]]
    if max(b_cost) < min(a_cost):
        return "ok"
    if min(b_cost) > max(a_cost) and worse > metric.bound:
        return "regressed"
    return "unresolved"


def check_files(a_path: Path, b_path: Path) -> int:
    """Print the comparison; 0 = held, 1 = regressed, 2 = refused."""
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    for key in SAME:
        if a["stamp"].get(key) != b["stamp"].get(key):
            print(
                f"refusing to compare: {key} differs"
                f" ({a['stamp'].get(key)!r} vs {b['stamp'].get(key)!r})"
            )
            return 2
    print(f"A: {a_path}  commit {a['stamp']['commit']}")
    print(f"B: {b_path}  commit {b['stamp']['commit']}")
    print(
        f"{'metric':<24}{'workload':<18}{'A':>12}{'B':>12}"
        f"{'change':>9}{'bound':>8}  verdict"
    )
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for metric in end_to_end_metrics():
        for name in metric.workloads:
            row_a = a["workloads"][name]["end_to_end"][metric.name]
            row_b = b["workloads"][name]["end_to_end"][metric.name]
            result = verdict(metric, row_a, row_b)
            counts[result] += 1
            if metric.absolute:
                change = f"{row_b['value'] - row_a['value']:+.4f}"
                bound = f"{metric.bound:.3f}"
            else:
                base = row_a["value"] or 1.0
                change = f"{(row_b['value'] - row_a['value']) / base:+.1%}"
                bound = f"{metric.bound:.0%}"
            print(
                f"{metric.name:<24}{name:<18}{row_a['value']:>12.5g}"
                f"{row_b['value']:>12.5g}{change:>9}{bound:>8}  {result}"
            )
    print(
        f"{counts['ok']} ok, {counts['regressed']} regressed,"
        f" {counts['unresolved']} unresolved"
    )
    return 1 if counts["regressed"] else 0
