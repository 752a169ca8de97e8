"""Runtime elasticity: live migrations, host lifecycle, autoscaling.

The paper's adaptive-FT loop re-plans a tenant on rate drift but says
nothing about *how* a running deployment moves to the new plan. This
package adds that missing runtime layer on top of the simulated
platform (:mod:`repro.dsps`):

* :mod:`repro.elastic.migration` — the live-reconfiguration protocol:
  replica add/remove/move with state transfer, bounded dual-running and
  atomic cutover, plus host drains;
* :mod:`repro.elastic.autoscaler` — a deterministic per-tenant control
  loop that scales replicas around the diurnal peak and consolidates
  hosts at night, proving feasibility before every cutover;
* :mod:`repro.elastic.dataplane` — the autoscaled diurnal fleet
  scenario (the elastic twin of :mod:`repro.fleet.dataplane`).

See ``docs/elasticity.md`` for the protocol state machine and the
invariants the chaos checker enforces across migration windows.
"""

from repro.elastic.autoscaler import Autoscaler, AutoscalerPolicy
from repro.elastic.dataplane import (
    CoreHourMeter,
    ElasticParams,
    ElasticTask,
    run_elastic_tenant,
    summarize_elastic,
)
from repro.elastic.migration import MigrationAction, MigrationEngine

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "CoreHourMeter",
    "ElasticParams",
    "ElasticTask",
    "MigrationAction",
    "MigrationEngine",
    "run_elastic_tenant",
    "summarize_elastic",
]
