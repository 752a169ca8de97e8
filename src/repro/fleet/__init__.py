"""The multi-tenant control plane (ROADMAP: "a provider, not a demo").

``repro.fleet`` operates a shared cluster for many tenants on top of the
single-contract machinery of :mod:`repro.service`:

* :class:`~repro.fleet.store.StrategyStore` — persistent memoisation of
  FT-Search results keyed by descriptor/host/SLA hashes;
* :class:`~repro.fleet.controller.FleetController` — admission, packing
  onto a shared :class:`~repro.placement.packing.HostPool`, drift
  detection from configuration-index fallbacks, warm-started
  re-planning, eviction;
* :func:`~repro.fleet.scenario.run_fleet_scenario` — deterministic
  fleet-scale scenarios (parallel store prewarm + serial control loop);
* :func:`~repro.fleet.report.render_fleet_report` — the occupancy/SLA
  report behind ``repro fleet``.

Exports resolve lazily (PEP 562): :mod:`repro.service.contract` imports
``repro.fleet.store`` while :mod:`repro.fleet.controller` imports the
service layer, and lazy resolution keeps that pair cycle-free.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "StoreError": "repro.fleet.store",
    "StrategyStore": "repro.fleet.store",
    "strategy_key": "repro.fleet.store",
    "record_from_result": "repro.fleet.store",
    "result_from_record": "repro.fleet.store",
    "TenantClass": "repro.fleet.controller",
    "TenantSpec": "repro.fleet.controller",
    "TenantState": "repro.fleet.controller",
    "FleetController": "repro.fleet.controller",
    "FleetScenarioParams": "repro.fleet.scenario",
    "FleetScenarioResult": "repro.fleet.scenario",
    "run_fleet_scenario": "repro.fleet.scenario",
    "render_fleet_report": "repro.fleet.report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.fleet' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
