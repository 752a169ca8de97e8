"""Simulation-kernel benchmark: batched vs tuple-granular execution.

Three measurements on the pinned fleet data-plane workload
(:mod:`repro.fleet.dataplane` — chain applications, k=2 active
replication, diurnal two-level traces, scripted chaos on every 25th
tenant):

* **Fleet slice** (the headline) — a 100-tenant slice simulated end to
  end in both execution modes, timing ``platform.run()`` only
  (construction is identical in both modes and excluded). The batched
  engine must produce byte-identical event logs, so the benchmark
  hashes every tenant's canonical event stream in both modes and
  asserts equality — plus zero conservation violations — before
  reporting a single number.
* **Steady state** — one chaos-free tenant over a long trace: the pure
  closed-form-train regime, no fallback windows, the upper bound on what
  interval batching buys.
* **Dataplane fleet** — the 10k-tenant diurnal fleet scenario run
  through :func:`repro.driver.run_tenants` over the
  process fabric in batched mode, asserting the fleet-wide invariant
  verdict (``ok``: conservation holds for every replica of every
  tenant and every tenant produced output).

Writes ``BENCH_sim.json`` next to this script.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_sim.py [--smoke]

``--smoke`` shrinks everything to a seconds-long CI sanity check of the
harness (assertions included), not a measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

from repro.fleet.dataplane import DataplaneParams, build_tenant_platform
from repro.driver import run_tenants

OUT_PATH = Path(__file__).parent / "BENCH_sim.json"

#: Fleet slice: chaos density matches the 10k-tenant scenario defaults
#: (every 25th tenant crashes a host mid-run, every 37th gets a
#: slow-host window), so the speedup includes the tuple-granular
#: fallback the chaos tenants force.
FULL_SLICE = dict(tenants=100, chaos_every=25, duration=30.0, rounds=3)
SMOKE_SLICE = dict(tenants=8, chaos_every=4, duration=30.0, rounds=1)

#: Steady state: one chaos-free tenant, long trace.
FULL_STEADY = dict(duration=240.0, rounds=3)
SMOKE_STEADY = dict(duration=60.0, rounds=1)

#: Dataplane fleet: the ROADMAP item 5 headline workload.
FULL_FLEET = dict(tenants=10_000, jobs=4)
SMOKE_FLEET = dict(tenants=60, jobs=2)


def _run_mode(
    params: DataplaneParams, batching: bool, rounds: int
) -> tuple[float, int, list[str], list[str], dict]:
    """Min-of-rounds wall time for one mode, plus correctness evidence.

    Returns ``(seconds, tuples, hashes, violations, engine_totals)``
    where ``tuples`` counts source arrivals plus replica-processed
    tuples, and ``hashes`` is the per-tenant SHA-256 of the canonical
    event stream from the final round.
    """
    best = float("inf")
    tuples = 0
    hashes: list[str] = []
    violations: list[str] = []
    engine_totals: dict[str, int] = {}
    for _ in range(rounds):
        platforms = [
            build_tenant_platform(params, tenant, batching)
            for tenant in range(params.tenants)
        ]
        start = time.perf_counter()
        metrics = [platform.run() for platform in platforms]
        best = min(best, time.perf_counter() - start)
        tuples = 0
        hashes = []
        violations = []
        engine_totals = {}
        for tenant, (platform, m) in enumerate(zip(platforms, metrics)):
            tuples += m.total_input + m.tuples_processed
            jsonl = platform.telemetry.events.to_jsonl()
            hashes.append(hashlib.sha256(jsonl.encode("utf-8")).hexdigest())
            for replica_id, rm in sorted(
                m.replicas.items(), key=lambda item: str(item[0])
            ):
                queued = platform.replica(replica_id).queue_length
                if rm.received != rm.processed + rm.dropped + rm.lost + queued:
                    violations.append(f"tenant {tenant}: {replica_id}")
            if m.total_output == 0:
                violations.append(f"tenant {tenant}: no output")
            if platform.engine is not None:
                for key, value in platform.engine.stats.items():
                    engine_totals[key] = engine_totals.get(key, 0) + value
    return best, tuples, hashes, violations, engine_totals


def bench_fleet_slice(spec: dict) -> dict:
    params = DataplaneParams(
        tenants=spec["tenants"],
        chaos_every=spec["chaos_every"],
        duration=spec["duration"],
    )
    rounds = spec["rounds"]
    t_time, t_tuples, t_hashes, t_viol, _ = _run_mode(
        params, batching=False, rounds=rounds
    )
    b_time, b_tuples, b_hashes, b_viol, engine = _run_mode(
        params, batching=True, rounds=rounds
    )
    assert t_hashes == b_hashes, (
        "event logs diverged between execution modes — run"
        " tests/sim/test_batched_equivalence.py"
    )
    assert not t_viol and not b_viol, (t_viol, b_viol)
    assert t_tuples == b_tuples
    return {
        "tenants": spec["tenants"],
        "chaos_every": spec["chaos_every"],
        "duration": spec["duration"],
        "rounds": rounds,
        "tuples": t_tuples,
        "tuple_granular_seconds": round(t_time, 4),
        "batched_seconds": round(b_time, 4),
        "tuple_granular_tuples_per_sec": round(t_tuples / t_time),
        "batched_tuples_per_sec": round(b_tuples / b_time),
        "speedup": round(t_time / b_time, 2),
        "engine": engine,
    }


def bench_steady_state(spec: dict) -> dict:
    params = DataplaneParams(
        tenants=1, chaos_every=0, duration=spec["duration"]
    )
    rounds = spec["rounds"]
    t_time, t_tuples, t_hashes, t_viol, _ = _run_mode(
        params, batching=False, rounds=rounds
    )
    b_time, b_tuples, b_hashes, b_viol, engine = _run_mode(
        params, batching=True, rounds=rounds
    )
    assert t_hashes == b_hashes
    assert not t_viol and not b_viol, (t_viol, b_viol)
    assert engine["micro_events"] == 0, (
        "a chaos-free tenant must run entirely in closed form"
    )
    return {
        "duration": spec["duration"],
        "rounds": rounds,
        "tuples": t_tuples,
        "tuple_granular_seconds": round(t_time, 4),
        "batched_seconds": round(b_time, 4),
        "speedup": round(t_time / b_time, 2),
        "engine": engine,
    }


def bench_dataplane_fleet(spec: dict) -> dict:
    params = DataplaneParams(tenants=spec["tenants"], batching=True)
    start = time.perf_counter()
    summary, _digests = run_tenants(params, jobs=spec["jobs"])
    elapsed = time.perf_counter() - start
    assert summary["ok"], summary["violations"]
    tuples = summary["totals"]["input"] + summary["totals"]["processed"]
    return {
        "tenants": spec["tenants"],
        "jobs": spec["jobs"],
        "tuples": tuples,
        "seconds": round(elapsed, 4),
        "tuples_per_sec": round(tuples / elapsed),
        "fleet_sha256": summary["fleet_sha256"],
        "fallback_windows": summary["totals"]["fallback_windows"],
        "engine": summary["engine"],
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
        "fleet_slice": bench_fleet_slice(SMOKE_SLICE if smoke else FULL_SLICE),
        "steady_state": bench_steady_state(
            SMOKE_STEADY if smoke else FULL_STEADY
        ),
        "dataplane_fleet": bench_dataplane_fleet(
            SMOKE_FLEET if smoke else FULL_FLEET
        ),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"written to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
