"""The fleet occupancy/SLA report (``repro fleet``'s output).

``build_fleet_report`` reduces one scenario run to a canonical,
JSON-friendly dict: admission counters, shared-pool occupancy with the
per-tenant isolation ledger, per-class SLA/revenue aggregates, strategy
store statistics and event-type counts. Every value is a pure function
of the scenario — no wall-clock times, no environment data — so the
serialized report is byte-identical across runs and worker counts.

``render_fleet_report`` renders the dict as the fixed-width text block
the CLI prints.
"""

from __future__ import annotations

from repro.fleet.controller import FleetController

__all__ = [
    "build_fleet_report",
    "render_dataplane_slo_report",
    "render_fleet_report",
]


def render_dataplane_slo_report(summary: dict) -> str:
    """One-paragraph SLO verdict block for a dataplane fleet summary.

    Consumes the ``"slo"``/``"log_complete"`` keys of
    :func:`repro.fleet.dataplane.summarize_dataplane`.
    """
    slo = summary["slo"]
    verdicts = ", ".join(
        f"{name}={count}" for name, count in slo["verdicts"].items()
    )
    trust = "" if summary["log_complete"] else (
        "  (UNTRUSTED: some tenant logs evicted events)"
    )
    minimum = slo["min_availability"]
    lines = [
        f"slo: {slo['tenants']} tenants,"
        f" min availability {minimum:.6f},"
        f" {slo['bad_seconds']:.3f}s out of contract,"
        f" {slo['alerts']} burn alert(s)",
        f"slo verdicts: {verdicts}{trust}",
    ]
    return "\n".join(lines) + "\n"


def build_fleet_report(params, controller: FleetController, telemetry) -> dict:
    """The canonical report for one scenario run."""
    classes: dict[str, dict] = {}
    tenants = []
    for name in sorted(controller.tenants):
        state = controller.tenants[name]
        cls = state.spec.tenant_class
        entry = classes.setdefault(
            cls.name,
            {
                "ic_target": cls.ic_target,
                "admitted": 0,
                "active": 0,
                "evicted": 0,
                "fare_total": 0.0,
                "guaranteed_ic_min": None,
            },
        )
        entry["admitted"] += 1
        if state.status == "active":
            entry["active"] += 1
            entry["fare_total"] += state.fare
            ic = state.provisioned.guaranteed_ic
            if entry["guaranteed_ic_min"] is None:
                entry["guaranteed_ic_min"] = ic
            else:
                entry["guaranteed_ic_min"] = min(
                    entry["guaranteed_ic_min"], ic
                )
        else:
            entry["evicted"] += 1
        tenants.append(
            {
                "tenant": name,
                "app": state.spec.descriptor.name,
                "class": cls.name,
                "status": state.status,
                "cores": state.cores,
                "hosts": len(state.mapping),
                "fare": state.fare,
                "replans": state.replans,
                "drift_factor": state.drift_factor,
            }
        )

    return {
        "scenario": params.describe(),
        "admission": controller.counters(),
        "pool": controller.pool.occupancy(),
        "classes": {name: classes[name] for name in sorted(classes)},
        "tenants": tenants,
        "store": controller.store.stats(),
        "events": dict(sorted(telemetry.events.type_counts.items())),
    }


def _line(label: str, value) -> str:
    return f"  {label:<28} {value}"


def render_fleet_report(report: dict) -> str:
    """Fixed-width text rendering of :func:`build_fleet_report`."""
    scenario = report["scenario"]
    admission = report["admission"]
    pool = report["pool"]
    store = report["store"]
    out: list[str] = []
    out.append("fleet scenario report")
    out.append("=" * 60)
    out.append(
        f"  {scenario['tenants']} tenants over {scenario['distinct_apps']}"
        f" app templates, classes: {', '.join(scenario['classes'])}"
    )
    out.append("")
    out.append("admission")
    out.append("-" * 60)
    out.append(_line("submitted", admission["submitted"]))
    out.append(_line("admitted", admission["admitted"]))
    out.append(_line("rejected (SLA infeasible)", admission["rejected_sla"]))
    out.append(_line("rejected (capacity)", admission["rejected_capacity"]))
    out.append(_line("evicted", admission["evicted"]))
    out.append(_line("active", admission["active"]))
    out.append(
        _line(
            "re-plans (feasible/tried)",
            f"{admission['replans_feasible']}/{admission['replans_attempted']}",
        )
    )
    out.append("")
    out.append("shared pool occupancy")
    out.append("-" * 60)
    out.append(
        _line(
            "cores used/total",
            f"{pool['used_cores']}/{pool['total_cores']}"
            f" ({pool['utilization'] * 100:.1f}%)",
        )
    )
    out.append(_line("tenants placed", pool["tenants"]))
    out.append(f"  {'host':<12} {'used':>6} {'free':>6}  tenants")
    for host in pool["hosts"]:
        shown = ", ".join(sorted(host["tenants"]))
        if len(shown) > 40:
            shown = shown[:37] + "..."
        out.append(
            f"  {host['host']:<12} {host['used']:>6} {host['free']:>6}"
            f"  {shown}"
        )
    out.append("")
    out.append("service classes")
    out.append("-" * 60)
    out.append(
        f"  {'class':<10} {'IC target':>9} {'admitted':>9} {'active':>7}"
        f" {'min IC':>8} {'fares':>12}"
    )
    for name, entry in report["classes"].items():
        ic_min = entry["guaranteed_ic_min"]
        ic_text = "-" if ic_min is None else f"{ic_min:.4f}"
        out.append(
            f"  {name:<10} {entry['ic_target']:>9.2f}"
            f" {entry['admitted']:>9} {entry['active']:>7}"
            f" {ic_text:>8}"
            f" {entry['fare_total']:>12.2f}"
        )
    out.append("")
    out.append("strategy store")
    out.append("-" * 60)
    out.append(_line("entries", store["entries"]))
    out.append(_line("hits", store["hits"]))
    out.append(_line("misses", store["misses"]))
    out.append("")
    out.append("events")
    out.append("-" * 60)
    for type_, count in report["events"].items():
        out.append(_line(type_, count))
    return "\n".join(out) + "\n"
