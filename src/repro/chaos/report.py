"""Plain-text rendering of a chaos-campaign report.

Turns the JSON document assembled by ``repro chaos run`` — one digest
per campaign plus sweep-level metadata — into the terminal report: a
per-campaign table (seed, schedule, event volume, the seconds the IC
bound excused per cause, invariant verdict) followed by the details of
every violation. Rendering is read-only; the JSON artifact on disk is
the source of truth.
"""

from __future__ import annotations

from typing import Any

__all__ = ["render_chaos_report"]


def _schedule_summary(schedule: list[dict[str, Any]]) -> str:
    if not schedule:
        return "(no injections)"
    return " ".join(
        f"{item['kind']}@{item['at']:g}" for item in schedule
    )


def render_chaos_report(report: dict[str, Any]) -> str:
    """The chaos sweep as a plain-text report."""
    lines = ["chaos campaign report", "====================="]
    meta = report.get("meta", {})
    if meta:
        lines.append(
            "  ".join(f"{key}={value}" for key, value in sorted(meta.items()))
        )

    campaigns = report.get("campaigns", [])
    header = (
        f"{'seed':>6}  {'events':>8}  {'switches':>8}  {'spans':>5}"
        f"  {'avail':>9}  {'alerts':>6}  {'transition':>10}"
        f"  {'off-model':>9}  {'verdict':>8}  schedule"
    )
    lines += ["", header, "-" * len(header)]
    for digest in campaigns:
        verdict = "ok" if digest["invariants"]["ok"] else "VIOLATED"
        excused = digest["invariants"]["stats"]["seconds"]
        slo = digest.get("slo") or {}
        availability = slo.get("availability")
        avail = f"{availability:.6f}" if availability is not None else "-"
        fired = sum(
            1
            for alert in slo.get("alerts", [])
            if alert["state"] == "firing"
        )
        lines.append(
            f"{digest['seed']:>6}"
            f"  {digest['events_emitted']:>8}"
            f"  {digest['metrics']['config_switches']:>8}"
            f"  {len(digest['spans']):>5}"
            f"  {avail:>9}"
            f"  {fired:>6}"
            f"  {excused['transition']:>10.3f}"
            f"  {excused['off_model']:>9.3f}"
            f"  {verdict:>8}"
            f"  {_schedule_summary(digest['schedule'])}"
        )

    alerting = [
        digest
        for digest in campaigns
        if (digest.get("slo") or {}).get("alerts")
    ]
    if alerting:
        lines += ["", "slo alerts", "----------"]
        for digest in alerting:
            slo = digest["slo"]
            suffix = "" if slo["trusted"] else "  (UNTRUSTED: evicted log)"
            for alert in slo["alerts"]:
                lines.append(
                    f"seed {digest['seed']}"
                    f"  [{alert['rule']}] {alert['state']}"
                    f" at window {alert['window']}"
                    f"  burn fast={alert['burn_fast']:.1f}"
                    f" slow={alert['burn_slow']:.1f}{suffix}"
                )

    broken = [
        digest
        for digest in campaigns
        if not digest["invariants"]["ok"]
    ]
    if broken:
        lines += ["", "violations", "----------"]
        for digest in broken:
            for violation in digest["invariants"]["violations"]:
                lines.append(
                    f"seed {digest['seed']}"
                    f"  t={violation['time']:.3f}s"
                    f"  [{violation['invariant']}]"
                    f" {violation['detail']}"
                )
    else:
        lines += ["", "all invariants held on every campaign"]
    return "\n".join(lines) + "\n"
