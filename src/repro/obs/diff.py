"""Run-to-run SLO diff: aligned windows, per-phase delta attribution.

``repro obs diff <runA> <runB>`` answers "why did run B regress vs run
A?" for two ``repro fleet --dataplane`` documents (``dataplane.json``,
whose tenants carry their SLO rollups). Runs are
aligned per tenant and per sim-time window index — windows are fixed
``[k*W, (k+1)*W)`` grids anchored at t=0, so index alignment *is*
sim-time alignment — and every metric delta is attributed to the phase
pair the aligned windows were in (``steady``, ``failure``,
``failover``, ``replan``, or a ``a->b`` transition label when the two
runs disagree).

Everything here is pure dict arithmetic over already-deterministic
artifacts: the produced diff document and its rendering are
byte-identical for byte-identical inputs, and are themselves sorted so
two equal diffs serialize identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.errors import ReproError

__all__ = ["diff_runs", "load_slo_document", "render_diff"]

#: How many tenants the "top movers" table keeps.
_TOP_MOVERS = 10


def load_slo_document(path: Union[str, Path]) -> dict[str, Any]:
    """Read one ``dataplane.json``; a truncated or non-object file, or a tenant
    :func:`diff_runs` cannot read, is a :class:`~repro.errors.ReproError`
    naming it (and the tenant), never a traceback."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"slo artifact {path} is not JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ReproError(f"slo artifact {path} is not a JSON object")
    for index, entry in enumerate(_tenants(document, f"slo artifact {path}")):
        # Diffing a tenant with itself reads all that diff_runs reads.
        alone = {"tenants": [entry]}
        try:
            diff_runs(alone, alone)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            name = f"entry {index}"
            if isinstance(entry, dict):
                name = entry.get("tenant", name)
            raise ReproError(
                f"slo artifact {path}: tenant {name} is unreadable: {exc!r}"
            ) from exc
    return document


def _tenants(doc: Mapping[str, Any], what: str) -> list:
    tenants = doc.get("tenants")
    if not isinstance(tenants, list):
        raise ReproError(
            f"{what} is not a 'repro fleet --dataplane' document"
            " (missing 'tenants' list)"
        )
    return tenants


def _tenant_map(doc: Mapping[str, Any], what: str) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for entry in _tenants(doc, what):
        slo = entry.get("slo")
        if slo is not None:
            out[str(entry["tenant"])] = slo
    return out


def _lat(value: Optional[float]) -> float:
    return 0.0 if value is None else float(value)


def _pair(a: float, b: float) -> dict[str, float]:
    return {"a": a, "b": b, "delta": b - a}


def diff_runs(
    doc_a: Mapping[str, Any], doc_b: Mapping[str, Any]
) -> dict[str, Any]:
    """Diff two ``dataplane.json`` documents into one attribution
    document."""
    slo_a = _tenant_map(doc_a, "run A")
    slo_b = _tenant_map(doc_b, "run B")
    common = sorted(set(slo_a) & set(slo_b), key=lambda t: (len(t), t))
    only_a = sorted(set(slo_a) - set(slo_b), key=lambda t: (len(t), t))
    only_b = sorted(set(slo_b) - set(slo_a), key=lambda t: (len(t), t))

    phases: dict[str, dict[str, float]] = {}
    movers: list[dict[str, Any]] = []
    verdict_changes: list[dict[str, str]] = []
    totals = {
        "bad_seconds": [0.0, 0.0],
        "output": [0.0, 0.0],
        "drops": [0.0, 0.0],
        "alerts": [0.0, 0.0],
    }
    availability = [0.0, 0.0]
    unaligned_windows = 0
    # Migration-window exposure per side (counted over *all* windows of
    # the side, aligned or not — a run that migrates more is visible
    # even when the other run ended earlier).
    migration_windows = [0, 0]
    migration_bad = [0.0, 0.0]

    for tenant in common:
        a = slo_a[tenant]
        b = slo_b[tenant]
        availability[0] += a["availability"]
        availability[1] += b["availability"]
        totals["bad_seconds"][0] += a["bad_seconds"]
        totals["bad_seconds"][1] += b["bad_seconds"]
        totals["output"][0] += a["output"]
        totals["output"][1] += b["output"]
        totals["drops"][0] += a["drops"]
        totals["drops"][1] += b["drops"]
        fired_a = sum(1 for x in a["alerts"] if x["state"] == "firing")
        fired_b = sum(1 for x in b["alerts"] if x["state"] == "firing")
        totals["alerts"][0] += fired_a
        totals["alerts"][1] += fired_b
        if a["verdict"] != b["verdict"]:
            verdict_changes.append(
                {"tenant": tenant, "a": a["verdict"], "b": b["verdict"]}
            )

        windows_a = a["windows"]
        windows_b = b["windows"]
        for side, windows in ((0, windows_a), (1, windows_b)):
            for window in windows:
                if window["phase"] == "migration":
                    migration_windows[side] += 1
                    migration_bad[side] += window["bad_seconds"]
        aligned = min(len(windows_a), len(windows_b))
        unaligned_windows += (
            len(windows_a) - aligned + len(windows_b) - aligned
        )
        for index in range(aligned):
            wa = windows_a[index]
            wb = windows_b[index]
            phase = (
                wa["phase"]
                if wa["phase"] == wb["phase"]
                else f"{wa['phase']}->{wb['phase']}"
            )
            bucket = phases.setdefault(
                phase,
                {
                    "windows": 0.0,
                    "bad_a": 0.0,
                    "bad_b": 0.0,
                    "output_a": 0.0,
                    "output_b": 0.0,
                    "drops_a": 0.0,
                    "drops_b": 0.0,
                    "lat_p95_a": 0.0,
                    "lat_p95_b": 0.0,
                },
            )
            bucket["windows"] += 1
            bucket["bad_a"] += wa["bad_seconds"]
            bucket["bad_b"] += wb["bad_seconds"]
            bucket["output_a"] += wa["output"]
            bucket["output_b"] += wb["output"]
            bucket["drops_a"] += wa["drops"]
            bucket["drops_b"] += wb["drops"]
            bucket["lat_p95_a"] = max(
                bucket["lat_p95_a"], _lat(wa["lat_p95"])
            )
            bucket["lat_p95_b"] = max(
                bucket["lat_p95_b"], _lat(wb["lat_p95"])
            )

        movers.append(
            {
                "tenant": tenant,
                "d_availability": b["availability"] - a["availability"],
                "d_bad_seconds": b["bad_seconds"] - a["bad_seconds"],
                "d_output": b["output"] - a["output"],
                "d_drops": b["drops"] - a["drops"],
                "d_alerts": fired_b - fired_a,
                "verdicts": f"{a['verdict']}/{b['verdict']}",
            }
        )

    movers.sort(
        key=lambda m: (
            -abs(m["d_bad_seconds"]),
            -abs(m["d_output"]),
            -abs(m["d_drops"]),
            (len(m["tenant"]), m["tenant"]),
        )
    )
    n = len(common)
    return {
        "tenants": {
            "common": n,
            "only_a": only_a,
            "only_b": only_b,
        },
        "unaligned_windows": unaligned_windows,
        "totals": {
            "availability": _pair(
                availability[0] / n if n else 1.0,
                availability[1] / n if n else 1.0,
            ),
            "bad_seconds": _pair(*totals["bad_seconds"]),
            "output": _pair(*totals["output"]),
            "drops": _pair(*totals["drops"]),
            "alerts": _pair(*totals["alerts"]),
        },
        "phases": {
            phase: {
                "windows": int(bucket["windows"]),
                "bad_seconds": _pair(bucket["bad_a"], bucket["bad_b"]),
                "output": _pair(bucket["output_a"], bucket["output_b"]),
                "drops": _pair(bucket["drops_a"], bucket["drops_b"]),
                "lat_p95": _pair(bucket["lat_p95_a"], bucket["lat_p95_b"]),
            }
            for phase, bucket in sorted(phases.items())
        },
        "migration_windows": {
            "windows": _pair(
                float(migration_windows[0]), float(migration_windows[1])
            ),
            "bad_seconds": _pair(migration_bad[0], migration_bad[1]),
        },
        "verdict_changes": verdict_changes,
        "top_movers": movers[:_TOP_MOVERS],
    }


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4f}"


def render_diff(diff: Mapping[str, Any]) -> str:
    """Fixed-width text report of one diff document."""
    lines: list[str] = []
    tenants = diff["tenants"]
    lines.append("== slo diff ==")
    lines.append(
        f"tenants: {tenants['common']} aligned"
        f" (+{len(tenants['only_a'])} only in A,"
        f" +{len(tenants['only_b'])} only in B);"
        f" {diff['unaligned_windows']} unaligned windows"
    )
    lines.append("")
    lines.append("-- fleet totals (A -> B) --")
    for name, pair in diff["totals"].items():
        lines.append(
            f"  {name:<14} {_fmt(pair['a']):>12} -> {_fmt(pair['b']):>12}"
            f"  (delta {_fmt(pair['delta'])})"
        )
    lines.append("")
    lines.append("-- attribution by phase --")
    header = (
        f"  {'phase':<20} {'windows':>7} {'d_bad_s':>10}"
        f" {'d_output':>10} {'d_drops':>8} {'d_p95':>10}"
    )
    lines.append(header)
    for phase, bucket in diff["phases"].items():
        lines.append(
            f"  {phase:<20} {bucket['windows']:>7}"
            f" {_fmt(bucket['bad_seconds']['delta']):>10}"
            f" {_fmt(bucket['output']['delta']):>10}"
            f" {_fmt(bucket['drops']['delta']):>8}"
            f" {_fmt(bucket['lat_p95']['delta']):>10}"
        )
    migration = diff.get("migration_windows")
    if migration is not None:
        windows = migration["windows"]
        bad = migration["bad_seconds"]
        lines.append("")
        lines.append("-- migration windows (A -> B) --")
        lines.append(
            f"  windows {_fmt(windows['a'])} -> {_fmt(windows['b'])}"
            f" (delta {_fmt(windows['delta'])});"
            f" bad_seconds {_fmt(bad['a'])} -> {_fmt(bad['b'])}"
            f" (delta {_fmt(bad['delta'])})"
        )
    if diff["verdict_changes"]:
        lines.append("")
        lines.append("-- verdict changes --")
        for change in diff["verdict_changes"]:
            lines.append(
                f"  tenant {change['tenant']}: {change['a']}"
                f" -> {change['b']}"
            )
    lines.append("")
    lines.append("-- top movers --")
    lines.append(
        f"  {'tenant':<8} {'d_avail':>10} {'d_bad_s':>10} {'d_output':>10}"
        f" {'d_drops':>8} {'d_alerts':>8}  verdicts"
    )
    for mover in diff["top_movers"]:
        lines.append(
            f"  {mover['tenant']:<8} {mover['d_availability']:>10.6f}"
            f" {_fmt(mover['d_bad_seconds']):>10}"
            f" {_fmt(mover['d_output']):>10} {_fmt(mover['d_drops']):>8}"
            f" {_fmt(mover['d_alerts']):>8}  {mover['verdicts']}"
        )
    return "\n".join(lines) + "\n"
