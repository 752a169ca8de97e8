"""Fleet control-plane benchmark: admission throughput and warm re-plans.

Three measurements, all on pinned deterministic instances:

* **Admission throughput** — contracts admitted per second by a
  :class:`~repro.fleet.controller.FleetController` whose strategy store
  was prewarmed (the steady state of the fleet scenario: every admission
  is a store hit plus a bin-packing reservation, no search).
* **Warm-started search** — FT-Search on the pinned ``bench_ftsearch``
  instance, cold vs warm-started from the cold run's own optimum (the
  re-provisioning case). Both engines must return the identical optimal
  cost and strategy in no more nodes than cold — the equivalence
  guarantee the re-planner relies on — and this benchmark asserts
  exactly that before reporting. The node savings are honest and small:
  COST pruning is the weakest rule on these instances (COMPL/CPU do
  most of the cutting, see the Fig. 6 ablation), so the warm bound
  mostly buys certainty, not wall-clock.
* **Warm re-plan** — the fleet drift path end to end: provision a
  contract, scale its rates by the drift factor, re-provision cold vs
  warm-started from the running strategy.

Writes ``BENCH_fleet.json`` next to this script.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_fleet.py [--smoke]

``--smoke`` shrinks everything to a seconds-long CI sanity check of the
harness (assertions included), not a measurement.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core.optimizer import (
    FTSearchConfig,
    OptimizationProblem,
    ReferenceFTSearch,
    VectorFTSearch,
)
from repro.fleet.controller import (
    FleetController,
    TenantSpec,
    scale_descriptor_rates,
)
from repro.fleet.scenario import FleetScenarioParams, tenant_application
from repro.fleet.store import StrategyStore
from repro.obs.telemetry import Telemetry
from repro.service.contract import Provisioner

OUT_PATH = Path(__file__).parent / "BENCH_fleet.json"

#: Admission measurement: tenants cycled over the default 7 app
#: templates x 3 classes on a cluster large enough that nobody is
#: rejected for capacity.
FULL_ADMISSION = dict(tenants=200, shared_hosts=80, rounds=3)
SMOKE_ADMISSION = dict(tenants=20, shared_hosts=10, rounds=1)

#: Warm-search measurement: the pinned instances of bench_ftsearch, so
#: node counts line up with BENCH_ftsearch.json across commits.
FULL_SEARCH = dict(seed=2, n_pes=10, n_hosts=4, cores_per_host=5,
                   ic_target=0.6, rounds=3)
SMOKE_SEARCH = dict(seed=2014, n_pes=6, n_hosts=3, cores_per_host=4,
                    ic_target=0.6, rounds=1)

#: Warm re-plan measurement: one fleet template re-planned at a drift
#: factor inside the feasible band of its slice.
FULL_REPLAN = dict(seed=11, ic_target=0.5, drift_factor=1.1, rounds=3)
SMOKE_REPLAN = dict(seed=7, ic_target=0.3, drift_factor=1.1, rounds=1)


# ----------------------------------------------------------------------
# Admission throughput
# ----------------------------------------------------------------------

def _admission_specs(params: FleetScenarioParams) -> list[TenantSpec]:
    apps = {
        seed: tenant_application(params, seed)
        for seed in sorted({params.app_seed(i) for i in range(params.tenants)})
    }
    specs = []
    for i in range(params.tenants):
        app = apps[params.app_seed(i)]
        specs.append(
            TenantSpec(
                name=f"tenant-{i:04d}",
                descriptor=app.descriptor,
                slice_hosts=tuple(app.deployment.hosts),
                tenant_class=params.tenant_class(i),
            )
        )
    return specs


def _prewarmed_store(params: FleetScenarioParams,
                     specs: list[TenantSpec]) -> StrategyStore:
    store = StrategyStore()
    for spec in specs:
        Provisioner(
            list(spec.slice_hosts),
            replication_factor=params.replication_factor,
            search_time_limit=None,
            node_limit=params.node_limit,
            store=store,
        ).try_provision(spec.contract())
    return store


def bench_admission(spec: dict) -> dict:
    params = FleetScenarioParams(
        tenants=spec["tenants"], shared_hosts=spec["shared_hosts"]
    )
    specs = _admission_specs(params)
    store = _prewarmed_store(params, specs)

    best = float("inf")
    counters = None
    for _ in range(spec["rounds"]):
        controller = FleetController(
            params.shared_cluster(),
            Telemetry(),
            store=store,
            replication_factor=params.replication_factor,
            node_limit=params.node_limit,
        )
        start = time.perf_counter()
        for tenant in specs:
            controller.submit(tenant)
        best = min(best, time.perf_counter() - start)
        counters = controller.counters()
    assert counters["rejected_capacity"] == 0, (
        "sizing bug: admission benchmark must not hit the capacity wall"
    )
    return {
        "tenants": spec["tenants"],
        "rounds": spec["rounds"],
        "admitted": counters["admitted"],
        "rejected_sla": counters["rejected_sla"],
        "seconds": round(best, 4),
        "contracts_per_sec": round(spec["tenants"] / best),
    }


# ----------------------------------------------------------------------
# Warm-started search (pinned bench_ftsearch instance, engine + oracle)
# ----------------------------------------------------------------------

def _search_instance(spec: dict) -> OptimizationProblem:
    from repro.workloads.generator import (
        ClusterParams,
        GeneratorParams,
        generate_application,
    )

    app = generate_application(
        spec["seed"],
        params=GeneratorParams(n_pes=spec["n_pes"], tuple_budget=2000.0),
        cluster=ClusterParams(
            n_hosts=spec["n_hosts"], cores_per_host=spec["cores_per_host"]
        ),
        name="bench",
    )
    return OptimizationProblem(app.deployment, ic_target=spec["ic_target"])


def _time_search(engine_cls, problem, config, rounds):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = engine_cls(problem, config).run()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_warm_search(spec: dict) -> dict:
    problem = _search_instance(spec)
    rounds = spec["rounds"]
    cold_config = FTSearchConfig(time_limit=None, seed_incumbent=True)
    cold_time, cold = _time_search(
        VectorFTSearch, problem, cold_config, rounds
    )
    warm_config = FTSearchConfig(
        time_limit=None, seed_incumbent=True, warm_start=cold.strategy
    )
    warm_time, warm = _time_search(
        VectorFTSearch, problem, warm_config, rounds
    )

    assert warm.best_cost == cold.best_cost, (
        "warm-started search diverged — run the equivalence tests"
    )
    assert warm.strategy.to_dict() == cold.strategy.to_dict()
    assert warm.stats.nodes_expanded <= cold.stats.nodes_expanded

    # The same equivalence must hold on the reference oracle, and the
    # two engines must agree on the optimum (one round: this is a
    # correctness gate, not a timing; node counts are engine-specific).
    _, ref_cold = _time_search(ReferenceFTSearch, problem, cold_config, 1)
    _, ref_warm = _time_search(ReferenceFTSearch, problem, warm_config, 1)
    assert ref_warm.best_cost == ref_cold.best_cost
    assert ref_warm.strategy.to_dict() == ref_cold.strategy.to_dict()
    assert ref_warm.stats.nodes_expanded <= ref_cold.stats.nodes_expanded
    assert ref_warm.best_cost == warm.best_cost
    assert ref_warm.strategy.to_dict() == warm.strategy.to_dict()

    return {
        "instance": {k: spec[k] for k in spec if k != "rounds"},
        "rounds": rounds,
        "cold_nodes": cold.stats.nodes_expanded,
        "warm_nodes": warm.stats.nodes_expanded,
        "nodes_saved": cold.stats.nodes_expanded - warm.stats.nodes_expanded,
        "cold_seconds": round(cold_time, 4),
        "warm_seconds": round(warm_time, 4),
        "speedup": round(cold_time / warm_time, 2),
    }


# ----------------------------------------------------------------------
# Warm re-plan (the fleet drift path)
# ----------------------------------------------------------------------

def bench_warm_replan(spec: dict) -> dict:
    params = FleetScenarioParams(tenants=1, base_seed=spec["seed"])
    app = tenant_application(params, spec["seed"])
    tenant_class = next(
        c for c in params.classes if c.ic_target == spec["ic_target"]
    )
    tenant = TenantSpec(
        name="bench",
        descriptor=app.descriptor,
        slice_hosts=tuple(app.deployment.hosts),
        tenant_class=tenant_class,
    )
    provisioner = Provisioner(
        list(app.deployment.hosts),
        replication_factor=params.replication_factor,
        search_time_limit=None,
        node_limit=params.node_limit,
    )
    original = provisioner.provision(tenant.contract())
    drifted = tenant.contract(
        descriptor=scale_descriptor_rates(
            app.descriptor, spec["drift_factor"]
        )
    )

    def run(warm_start):
        best = float("inf")
        record = None
        for _ in range(spec["rounds"]):
            start = time.perf_counter()
            _, record = provisioner.try_provision(
                drifted, warm_start=warm_start
            )
            best = min(best, time.perf_counter() - start)
        return best, record

    cold_time, cold = run(None)
    warm_time, warm = run(original.strategy)
    assert warm["outcome"] == cold["outcome"]
    assert warm["best_cost"] == cold["best_cost"], (
        "warm-started re-plan diverged — run the equivalence tests"
    )
    assert warm["strategy"] == cold["strategy"]
    assert warm["nodes"] <= cold["nodes"]
    return {
        "instance": {k: spec[k] for k in spec if k != "rounds"},
        "rounds": spec["rounds"],
        "cold_nodes": cold["nodes"],
        "warm_nodes": warm["nodes"],
        "nodes_saved": cold["nodes"] - warm["nodes"],
        "cold_seconds": round(cold_time, 4),
        "warm_seconds": round(warm_time, 4),
        "speedup": round(cold_time / warm_time, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instances, one round: harness sanity check only",
    )
    args = parser.parse_args()
    smoke = args.smoke

    report = {
        "mode": "smoke" if smoke else "full",
        "admission": bench_admission(
            SMOKE_ADMISSION if smoke else FULL_ADMISSION
        ),
        "warm_search": bench_warm_search(
            SMOKE_SEARCH if smoke else FULL_SEARCH
        ),
        "warm_replan": bench_warm_replan(
            SMOKE_REPLAN if smoke else FULL_REPLAN
        ),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
