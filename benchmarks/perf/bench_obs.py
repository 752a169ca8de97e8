"""Telemetry overhead guard: the default-on hot paths must stay cheap.

Telemetry is on for every simulation run, so its hot paths — one
``EventLog.emit`` per runtime occurrence, one sketch insertion per sink
arrival — must be negligible next to the simulation work around them.
This benchmark times those paths in isolation, measures the streaming
SLO engine's rollup-ingest throughput, and then runs the fleet
dataplane with the SLO engine on and off to pin its end-to-end
overhead. It fails (exit 1) if any per-operation cost exceeds its
budget or the SLO overhead exceeds ``SLO_OVERHEAD_BUDGET`` (the 15%
acceptance bound against the ``BENCH_sim.json`` fleet throughput), so a
regression shows up as a red CI job instead of silently slowed
experiments.

Writes ``BENCH_obs.json`` next to this script.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_obs.py [--smoke]

``--smoke`` shrinks the dataplane to a seconds-long CI sanity check of
the harness (assertions included), not a measurement.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from repro.fleet.dataplane import DataplaneParams
from repro.driver import run_tenants
from repro.obs import EventLog, LogHistogram
from repro.obs.slo import NullAvailability, SloEngine

OUT_PATH = Path(__file__).parent / "BENCH_obs.json"
SIM_BASELINE_PATH = Path(__file__).parent / "BENCH_sim.json"

#: Per-operation budgets in microseconds. Generous: the emit path
#: measures ~1-3 us on commodity hardware; the budget only catches
#: order-of-magnitude regressions (accidental formatting or I/O on the
#: hot path), not micro-variance between machines.
EMIT_BUDGET_US = 25.0
SKETCH_ADD_BUDGET_US = 25.0
SLO_INGEST_BUDGET_US = 50.0

#: Maximum tolerated fractional throughput drop of the fleet dataplane
#: with the streaming SLO engine attached vs without it.
SLO_OVERHEAD_BUDGET = 0.15

FULL_FLEET = dict(tenants=10_000, jobs=4)
SMOKE_FLEET = dict(tenants=40, jobs=2)


def _time_emits(n: int) -> float:
    """Mean microseconds per ``EventLog.emit`` over ``n`` events."""
    clock_value = [0.0]
    log = EventLog(clock=lambda: clock_value[0], maxlen=4096)
    start = time.perf_counter()
    for i in range(n):
        log.emit("tuple.drop", replica="pe3#1", port="pe2", primary=True)
    elapsed = time.perf_counter() - start
    assert log.emitted == n
    return elapsed / n * 1e6


def _time_sketch(n: int) -> float:
    """Mean microseconds per ``LogHistogram.add`` over ``n`` values.

    Values follow a deterministic multiplicative-hash sequence spanning
    roughly three decades, so every insertion pays the real log/ceil
    bucket-index cost rather than a hot single-bucket path.
    """
    sketch = LogHistogram()
    values = [((i * 2654435761) % 1000003) / 1000.0 + 1e-4 for i in range(n)]
    start = time.perf_counter()
    add = sketch.add
    for value in values:
        add(value)
    elapsed = time.perf_counter() - start
    assert sketch.count == n
    return elapsed / n * 1e6


def _time_slo_ingest(n: int) -> float:
    """Mean microseconds per event through a tapped ``SloEngine``.

    The clock advances ~1 ms per event, so the stream crosses window
    bounds and the measurement includes the periodic rollup/close work,
    not just the per-event counters.
    """
    clock_value = [0.0]
    log = EventLog(clock=lambda: clock_value[0], maxlen=4096)
    engine = SloEngine(log, NullAvailability(), tenant="bench")
    log.add_tap(engine.on_event)
    start = time.perf_counter()
    for i in range(n):
        clock_value[0] = i * 0.001
        log.emit("tuple.drop", replica="pe3#1", port="pe2", primary=True)
    elapsed = time.perf_counter() - start
    engine.finalize(clock_value[0] + 1.0)
    assert engine.summary()["drops"] == n
    return elapsed / n * 1e6


def bench_dataplane_slo(spec: dict) -> dict:
    """Fleet dataplane throughput with the SLO engine on vs off."""
    base = DataplaneParams(tenants=spec["tenants"], batching=True)
    results = {}
    for label, slo in (("slo_on", True), ("slo_off", False)):
        params = dataclasses.replace(base, slo=slo)
        start = time.perf_counter()
        summary, _ = run_tenants(params, jobs=spec["jobs"])
        seconds = time.perf_counter() - start
        assert summary["ok"], f"dataplane violations ({label})"
        tuples = summary["totals"]["input"] + summary["totals"]["processed"]
        results[label] = {
            "seconds": round(seconds, 4),
            "tuples": tuples,
            "tuples_per_sec": int(tuples / seconds),
            "fleet_sha256": summary["fleet_sha256"],
        }
    on = results["slo_on"]
    off = results["slo_off"]
    overhead = 1.0 - on["tuples_per_sec"] / off["tuples_per_sec"]
    sim_baseline = None
    if SIM_BASELINE_PATH.exists():
        sim_report = json.loads(SIM_BASELINE_PATH.read_text())
        sim_baseline = sim_report.get("dataplane_fleet", {}).get(
            "tuples_per_sec"
        )
    return {
        "tenants": spec["tenants"],
        "jobs": spec["jobs"],
        "slo_on": on,
        "slo_off": off,
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": SLO_OVERHEAD_BUDGET,
        "sim_baseline_tuples_per_sec": sim_baseline,
        "within_budget": overhead <= SLO_OVERHEAD_BUDGET,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer iterations: CI sanity check only",
    )
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()

    n = 20_000 if args.smoke else 200_000
    emit_us = min(_time_emits(n) for _ in range(args.rounds))
    sketch_us = min(_time_sketch(n) for _ in range(args.rounds))
    slo_ingest_us = min(_time_slo_ingest(n) for _ in range(args.rounds))
    dataplane = bench_dataplane_slo(SMOKE_FLEET if args.smoke else FULL_FLEET)

    # The end-to-end overhead bound is only meaningful at full fleet
    # scale: the smoke slice is seconds long, so constant per-tenant
    # costs dominate and the ratio is noise. Smoke reports it; full
    # gates it.
    ok = (
        emit_us <= EMIT_BUDGET_US
        and sketch_us <= SKETCH_ADD_BUDGET_US
        and slo_ingest_us <= SLO_INGEST_BUDGET_US
        and (args.smoke or dataplane["within_budget"])
    )
    report = {
        "mode": "smoke" if args.smoke else "full",
        "events": n,
        "rounds": args.rounds,
        "emit_us": round(emit_us, 3),
        "emit_budget_us": EMIT_BUDGET_US,
        "sketch_add_us": round(sketch_us, 3),
        "sketch_add_budget_us": SKETCH_ADD_BUDGET_US,
        "slo_ingest_us": round(slo_ingest_us, 3),
        "slo_ingest_budget_us": SLO_INGEST_BUDGET_US,
        "dataplane_slo": dataplane,
        "within_budget": ok,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"written to {OUT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
