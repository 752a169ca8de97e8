"""Plain-text rendering of an observed-run report.

Turns the JSON document assembled by ``repro obs`` — one campaign digest
(:func:`repro.chaos.run_campaign`) per failure mode, optional FT-Search
progress snapshots, and the fabric profile — into the terminal report:
event counts, the injected schedule, the invariant verdict, the
configuration-switch timeline, failover windows, the top tuple droppers,
sink latency, search progress, and worker utilization. Rendering is
read-only; the JSON artifact on disk is the source of truth.
"""

from __future__ import annotations

from typing import Any

__all__ = ["render_report"]


def _fmt(value: Any, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def _render_mode(mode: dict[str, Any]) -> list[str]:
    lines = _section(f"mode: {mode['mode']}")
    emitted = mode["events_emitted"]
    evicted = mode["events_evicted"]
    suffix = f" ({evicted} evicted from the ring)" if evicted else ""
    lines.append(f"events: {emitted}{suffix}")
    counts = mode["event_counts"]
    if counts:
        lines.append(
            "  " + "  ".join(f"{name}={count}" for name, count in counts.items())
        )
    for item in mode["schedule"]:
        params = "".join(f" {k}={_fmt(v)}" for k, v in item["params"].items())
        lines.append(f"injected: {item['kind']}@{_fmt(item['at'])}{params}")
    verdict = mode["invariants"]
    lines.append(
        f"invariants: {'ok' if verdict['ok'] else 'VIOLATED'} (min FIC"
        f" margin {_fmt(verdict['stats']['min_ic_margin'], 4)} tuples/s)"
    )
    lines += [
        f"  t={_fmt(v['time'], 3)}s  [{v['invariant']}] {v['detail']}"
        for v in verdict["violations"]
    ]

    lines.append("switch timeline:")
    switches = mode["switches"]
    if switches:
        for switch in switches:
            lines.append(
                f"  t={_fmt(switch['t'])}s  config {switch['from']}"
                f" -> {switch['to']}  ({switch['commands']} commands)"
            )
    else:
        lines.append("  (no configuration switches)")

    failovers = [s for s in mode["spans"] if s["name"] == "failover"]
    if failovers:
        lines.append("failover windows:")
        for span in failovers:
            fields = span["fields"]
            lines.append(
                f"  t={_fmt(span['start'])}s  pe={fields.get('pe', '?')}"
                f"  lost={fields.get('replica', '?')}"
                f" -> {fields.get('elected', '?')}"
                f"  ({_fmt(span['duration'], 3)}s without a primary)"
            )

    droppers = mode["top_droppers"]
    if droppers:
        lines.append("top droppers:")
        for entry in droppers[:5]:
            lines.append(f"  {entry['replica']}: {entry['drops']} tuples")
    else:
        lines.append("top droppers: (no drops)")

    slo = mode["slo"]
    untrusted = "" if slo["trusted"] else " (UNTRUSTED: evicted log)"
    lines.append(
        f"slo: availability={_fmt(slo['availability'], 6)}"
        f" budget burned={_fmt(slo['burned'], 3)}"
        f" verdict={slo['verdict']}{untrusted}"
    )
    for alert in slo["alerts"]:
        lines.append(
            f"  alert[{alert['rule']}] {alert['state']}"
            f" at window {alert['window']}"
            f" (burn fast={_fmt(alert['burn_fast'], 1)}"
            f" slow={_fmt(alert['burn_slow'], 1)})"
        )

    metrics = mode["metrics"]
    lines.append(
        f"tuples: in={metrics['input']} out={metrics['output']}"
        f" processed={metrics['processed']} dropped={metrics['dropped']}"
    )
    for sink, summary in metrics["sink_latency"].items():
        lines.append(
            f"latency[{sink}]: n={summary['count']}"
            f" mean={_fmt(summary['mean'], 4)} p95={_fmt(summary['p95'], 4)}"
            f" max={_fmt(summary['max'], 4)}"
        )
    return lines


def _render_search(search: dict[str, Any]) -> list[str]:
    lines = _section("FT-Search progress")
    lines.append(
        f"outcome: {search['outcome']}  nodes={search['nodes']}"
        f"  cost={_fmt(search.get('cost'), 3)}  every={search['every']}"
    )
    for snap in search["snapshots"]:
        prunes = "  ".join(
            f"{rule}={count}" for rule, count in sorted(snap["prunes"].items())
        )
        lines.append(
            f"  nodes={snap['nodes']:>8}"
            f"  incumbent={_fmt(snap['incumbent_cost'], 3):>12}  {prunes}"
        )
    return lines


def _render_fabric(fabric: dict[str, Any]) -> list[str]:
    lines = _section(f"fabric: {fabric['label']}")
    if not fabric.get("n_tasks"):
        lines.append("(no tasks recorded)")
        return lines
    lines.append(
        f"{fabric['n_tasks']} tasks on {fabric['jobs']} workers in"
        f" {_fmt(fabric['wall_seconds'])}s wall"
        f"  (utilization {_fmt(fabric['utilization'])})"
    )
    lines.append(
        f"task seconds: total={_fmt(fabric['task_seconds_total'])}"
        f" mean={_fmt(fabric['task_seconds_mean'], 4)}"
        f" max={_fmt(fabric['task_seconds_max'], 4)}"
        f"  queue wait: mean={_fmt(fabric['queue_wait_mean'], 4)}"
        f" max={_fmt(fabric['queue_wait_max'], 4)}"
    )
    for worker in fabric["workers"]:
        lines.append(
            f"  worker {worker['worker']}: {worker['tasks']} tasks,"
            f" {_fmt(worker['busy_seconds'], 4)}s busy"
            f" (utilization {_fmt(worker['utilization'])})"
        )
    return lines


def render_report(report: dict[str, Any]) -> str:
    """The ``repro obs`` terminal report for one assembled run document."""
    lines: list[str] = [
        f"observed run: {report['bundle']}"
        f"  strategy={report['strategy']}"
        f"  duration={_fmt(report['duration'])}s seed={report['seed']}"
    ]
    for mode in report["modes"]:
        lines.extend(_render_mode(mode))
    if report.get("search"):
        lines.extend(_render_search(report["search"]))
    if report.get("fabric"):
        lines.extend(_render_fabric(report["fabric"]))
    return "\n".join(lines)
