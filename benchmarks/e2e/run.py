#!/usr/bin/env python3
"""Closed-loop LAAR benchmark — the one command.

::

    python3 benchmarks/e2e/run.py --all --out A.json      # the suite
    python3 benchmarks/e2e/run.py --all --trace 1         # + per layer
    python3 benchmarks/e2e/run.py --check A.json B.json   # compare
    python3 benchmarks/e2e/run.py --workload golden_path \\
        --seed 3 --seconds 12 --trace 0                   # one run

One run is one workload in one fresh process: imports and input
generation (set-up), one discarded warm-up pass, then timed passes of
identical work — ``--passes N`` of them, or as many as fit ``--seconds``
(never fewer than three). ``--all`` starts one such process per
workload, one after another, and writes one stamped result file. The
last line a run prints is the result object of the benchmark contract;
it exits non-zero when any output check failed.

See README.md next to this file for the metrics, the workloads and how
to read the numbers.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from e2e_harness import (  # noqa: E402
    Meter,
    PassTiming,
    calibrated,
    percentile,
    self_times,
    summary,
)
from e2e_metrics import SCOPED, benchmark_json  # noqa: E402

SCHEMA = "laar-e2e/1"
#: Input generation is repeated and its median reported (set-up noise).
SETUP_REPEATS = 3
MIN_PASSES = 3
SUITE_PASSES = 6
#: Root spans must cover the traced pass to within this share.
SPAN_COVERAGE = 0.02


def _import_workloads() -> Any:
    import e2e_workloads

    return e2e_workloads


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    passes: Optional[int],
    trace: bool,
) -> dict[str, Any]:
    """Set up, warm up, measure, check; returns the full report."""
    loadavg = os.getloadavg()
    interpreter_s = time.perf_counter() - _PROCESS_START
    module, import_s, _raw = calibrated(_import_workloads)
    workload = module.WORKLOADS[name]

    build_meter = Meter()
    for repeat in range(SETUP_REPEATS):
        with build_meter.op(repeat):
            inputs = workload.build(seed)
    build_s = build_meter.finish().op_latency
    baseline_s = 0.0
    if workload.baseline is not None:
        baseline_meter = Meter()
        inputs = workload.baseline(inputs, baseline_meter)
        baseline_s = baseline_meter.finish().wall
    setup_samples = [interpreter_s + import_s + b + baseline_s for b in build_s]

    warm_out, warm_time = workload.run_pass(inputs, Meter())
    outputs = []
    timings: list[PassTiming] = []
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()

    def more() -> bool:
        if passes is not None:
            return len(timings) < passes
        return (
            len(timings) < MIN_PASSES
            or time.perf_counter() - started < budget
        )

    while more():
        out, timing = workload.run_pass(inputs, Meter())
        out.detail = None  # only the traced pass is replayed
        outputs.append(out)
        timings.append(timing)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f"warm-up: {line}" for line in warm_out.failures]
    attempted = warm_out.ops
    failed = min(warm_out.ops, len(warm_out.failures))

    def account(label: str, out: Any) -> None:
        nonlocal attempted, failed
        attempted += out.ops
        lines = list(out.failures)
        bad = min(out.ops, len(lines))
        if out.digest != warm_out.digest or out.quality != warm_out.quality:
            lines.append("simulated outcome differs from the warm-up pass")
            bad = out.ops
        failed += bad
        failures.extend(f"{label}: {line}" for line in lines)

    for index, out in enumerate(outputs):
        account(f"pass {index}", out)

    end_to_end = _end_to_end(
        name, warm_out, outputs, timings, setup_samples, peak_rss_mb
    )
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "sizes": workload.sizes,
        "passes": len(timings),
        "loadavg_start": list(loadavg),
        "host_speed": [timing.speed for timing in timings],
        "wall_raw_s": [timing.wall_raw for timing in timings],
        "end_to_end": end_to_end,
    }

    if trace:
        traced_out, traced_time = workload.run_pass(inputs, Meter(trace=True))
        account("traced pass", traced_out)
        # One pass reads +-5 % by itself; the overhead takes two.
        again_out, again_time = workload.run_pass(inputs, Meter(trace=True))
        account("second traced pass", again_out)
        replay_meter = Meter()
        replay_counts, replay_failures = workload.replay(
            inputs, traced_out, replay_meter
        )
        replay_time = replay_meter.finish()
        failures.extend(f"replay: {line}" for line in replay_failures)
        failed = min(attempted, failed + len(replay_failures))
        layers, slices, coverage = _per_layer(
            traced_out,
            traced_time,
            replay_counts,
            replay_time,
            (traced_time.wall + again_time.wall) / 2,
            statistics.median(t.wall for t in timings),
            warm_time.wall,
            statistics.median(build_s),
        )
        if abs(coverage - 1.0) > SPAN_COVERAGE:
            failures.append(
                f"traced pass: root spans cover {coverage:.3f} of the pass"
            )
            failed = min(attempted, failed + 1)
        report["per_layer"] = layers
        report["slices"] = slices
        report["span_coverage"] = coverage
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{name}.json").write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "columns": ["id", "name", "start", "end", "parent", "op"],
                    "pass_started": traced_time.started,
                    "pass_ended": traced_time.ended,
                    "spans": traced_time.spans,
                }
            )
        )

    end_to_end["failed_frac"] = summary([failed / attempted], "ratio")
    report["attempted"] = attempted
    report["failed"] = failed
    report["correct"] = failed == 0 and not failures
    report["failures"] = failures[:50]
    report["run_real_s"] = time.perf_counter() - _PROCESS_START
    return report


def _end_to_end(
    name: str,
    warm_out: Any,
    outputs: list[Any],
    timings: list[PassTiming],
    setup_samples: list[float],
    peak_rss_mb: float,
) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics that apply to ``name``, measured with
    tracing off. A per-op latency is first reduced to that op's median
    over the passes, then percentiles are taken across ops."""
    per_op = [
        statistics.median(timing.op_latency[op] for timing in timings)
        for op in range(warm_out.ops)
    ]

    def latency(q: float) -> dict[str, Any]:
        result = summary(
            [1e3 * percentile(t.op_latency, q) for t in timings], "ms"
        )
        result["value"] = 1e3 * percentile(per_op, q)
        result["ops"] = len(per_op)
        return result

    def rate(amount: str, section: str) -> dict[str, Any]:
        return summary(
            [
                getattr(out, amount) / timing.sections[section]
                for out, timing in zip(outputs, timings)
            ],
            "1/s",
        )

    applies = {m.name for m in SCOPED if name in m.workloads}
    metrics = {
        "setup_s": summary(setup_samples, "s"),
        "wall_s": summary([t.wall for t in timings], "s"),
        "op_p50_ms": latency(0.50),
        "peak_rss_mb": summary([peak_rss_mb], "MiB"),
    }
    if "op_p90_ms" in applies:
        metrics["op_p90_ms"] = latency(0.90)
    if "contracts_per_s" in applies:
        metrics["contracts_per_s"] = rate("contracts", "control")
    if "sim_tuples_per_s" in applies:
        metrics["sim_tuples_per_s"] = rate("tuples", "data")
    for key, value in warm_out.quality.items():
        metrics[key] = summary([value] * len(timings), "ratio")
    return metrics


def _per_layer(
    out: Any,
    timing: PassTiming,
    replay_counts: dict[str, float],
    replay: PassTiming,
    traced_wall: float,
    untraced_wall: float,
    warmup_wall: float,
    generate_s: float,
) -> tuple[dict[str, float], list[tuple[str, float]], float]:
    """Every per-layer figure the traced run can give: counts from the
    layers' public counters, times from the harness's spans around the
    public calls (traced pass) and from the replays."""
    self_by_name, roots = self_times(timing.spans)
    coverage = roots / timing.wall_raw
    # Span durations in reference seconds, by the pass-wide host speed.
    times: dict[str, float] = {}
    for _id, span_name, start, end, _parent, _op in timing.spans:
        times[span_name] = times.get(span_name, 0.0) + (end - start) / timing.speed
    # A replay prices a layer the pass cannot see; where both exist the
    # pass's own span wins.
    for section, seconds in replay.sections.items():
        times.setdefault(section, seconds)
    # On elastic_chaos the platform runs inside `run_elastic_tenant`.
    times.setdefault("dsps.run", times.get("elastic.run", 0.0))

    values: dict[str, float] = dict(out.counts)
    values.update(replay_counts)
    for span_name, seconds in times.items():
        values[f"{span_name}_s"] = seconds

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def excess(section: str) -> float:
        """How much longer the sampled ops ran than with one feature off."""
        return base / times[section] - 1.0 if section in times else 0.0

    run_s = times.get("dsps.run", 0.0)
    # sim.events is counted on the platforms the harness holds: every
    # golden_path platform, the sampled (taken-apart) ones elsewhere.
    sim_s = times.get("replay.run", run_s)
    base = times.get("replay.base", times.get("replay.slo_on", 0.0))
    harness_self = sum(
        seconds
        for span_name, seconds in self_by_name.items()
        if span_name == "op" or span_name.startswith("harness.")
    )
    values.update(
        {
            "workloads.generate_s": generate_s,
            "core.optimizer.nodes_per_s": ratio(
                values.get("core.optimizer.nodes", 0),
                times.get("core.optimizer.search", 0.0),
            ),
            "dsps.us_per_tuple": 1e6
            * ratio(run_s, values.get("dsps.tuples_processed", 0)),
            "sim.events_per_s": ratio(values.get("sim.events", 0), sim_s),
            "dsps.batched.speedup_x": ratio(times.get("replay.tuple", 0.0), base),
            "obs.slo_overhead_frac": excess("replay.slo_off"),
            "elastic.overhead_frac": excess("replay.static"),
            "harness.self_s": harness_self / timing.speed,
            "harness.spans": len(timing.spans),
            "harness.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
            "harness.warmup_excess_s": warmup_wall - untraced_wall,
        }
    )
    slices = sorted(
        ((n, s / timing.speed) for n, s in self_by_name.items()),
        key=lambda item: (-item[1], item[0]),
    )
    return values, slices[:6], coverage


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def contract_result(report: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The result object of the benchmark contract: with tracing off
    every `end_to_end` metric of BENCHMARK.json, with tracing on every
    `per_layer` metric (0 for a layer the workload never enters)."""
    declared = benchmark_json()
    if trace:
        measured = dict(report["per_layer"])
        for key, value in report["end_to_end"].items():
            measured.setdefault(key, value["value"])
        metrics = {
            entry["name"]: {
                "value": float(measured.get(entry["name"], 0.0)),
                "unit": entry["unit"],
            }
            for entry in declared["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {
                "value": report["end_to_end"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in declared["end_to_end"]
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(report: dict[str, Any]) -> None:
    print(
        f"== {report['workload']}  seed={report['seed']}"
        f"  passes={report['passes']}  ops={report['sizes']['ops']}"
        f"  host speed x{statistics.median(report['host_speed']):.2f}"
        f"  correct={report['correct']}"
        f"  run took {report['run_real_s']:.1f} s"
    )
    print(f"   {'metric':<24}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, m in report["end_to_end"].items():
        print(
            f"   {name:<24}{m['unit']:<7}{m['value']:>14.6g}"
            f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}"
        )
    if "per_layer" in report:
        units = {e["name"]: e["unit"] for e in benchmark_json()["per_layer"]}
        for name in sorted(report["per_layer"]):
            if name in units:
                value = report["per_layer"][name]
                print(f"   {name:<40}{units[name]:<7}{value:>16.6g}")
        top, seconds = report["slices"][0]
        print(
            f"   biggest slice: {top} ({seconds:.3f} s self);"
            f" spans cover {report['span_coverage']:.4f} of the pass;"
            " top: "
            + ", ".join(f"{n} {s:.3f}" for n, s in report["slices"])
        )
    for line in report["failures"]:
        print(f"   FAILED {line}")


# ----------------------------------------------------------------------
# The suite: one fresh process per workload
# ----------------------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(seed: int, passes: int, trace: bool, out: Optional[Path]) -> int:
    import numpy

    names = [w["name"] for w in benchmark_json()["workloads"]]
    stamp = {
        "schema": SCHEMA,
        "commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "passes": passes,
        "loadavg_start": list(os.getloadavg()),
        "traced": trace,
    }
    OUT_DIR.mkdir(exist_ok=True)
    reports: dict[str, Any] = {}
    status = 0
    for name in names:
        for traced in (False, True) if trace else (False,):
            report_path = OUT_DIR / f"report-{name}-{int(traced)}.json"
            done = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(seed),
                    "--passes", str(passes),
                    "--trace", str(int(traced)),
                    "--report", str(report_path),
                ],
                stdout=subprocess.DEVNULL,
            )
            if not report_path.exists():
                print(f"== {name}: run exited {done.returncode}, no report")
                return 1
            report = json.loads(report_path.read_text())
            report_path.unlink()
            status = status or done.returncode
            if traced:
                # End-to-end numbers always come from the untraced run.
                for key in ("per_layer", "slices", "span_coverage"):
                    reports[name][key] = report[key]
                reports[name]["failures"] += report["failures"]
                reports[name]["correct"] &= report["correct"]
            else:
                reports[name] = report
        print_report(reports[name])
    stamp["sizes"] = {name: reports[name]["sizes"] for name in names}
    result = {"stamp": stamp, "workloads": reports}
    if out is not None:
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out}")
    return status


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--all", action="store_true", help="run the suite")
    parser.add_argument("--check", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="suite result file")
    parser.add_argument("--report", type=Path, help="full report of one run")
    args = parser.parse_args(argv)

    if args.check:
        from e2e_compare import check_files

        return check_files(*args.check)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_suite(
            args.seed, args.passes or SUITE_PASSES, bool(args.trace), args.out
        )
    if not args.workload:
        parser.error("one of --workload, --all, --check is required")
    seconds = (
        args.seconds
        if args.seconds is not None
        else float(benchmark_json()["run_seconds"])
    )
    report = run_workload(
        args.workload, args.seed, seconds, args.passes, bool(args.trace)
    )
    print_report(report)
    if args.report is not None:
        args.report.write_text(json.dumps(report) + "\n")
    print(json.dumps(contract_result(report, bool(args.trace))))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
