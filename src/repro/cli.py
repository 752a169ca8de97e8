"""Command-line interface: the LAAR workflow end-to-end.

The CLI mirrors the deployment workflow of Fig. 7 on *application bundle*
files — a single JSON document holding the descriptor, the replicated
deployment, and the source rates:

    python -m repro generate --seed 0 --pes 24 --out app.json
    python -m repro optimize app.json --ic 0.5 --out strategy.json
    python -m repro evaluate app.json --strategy strategy.json
    python -m repro simulate app.json --strategy strategy.json \
        --duration 60 --failure worst
    python -m repro obs app.json --ic 0.5 --out-dir obs-run
    python -m repro experiment fig3

``obs`` runs the telemetry workflow (docs/observability.md): one
observed simulation per failure mode, canonical JSONL event streams,
and a rendered report with the switch timeline, failover windows, top
droppers, FT-Search progress, and fabric utilization.

``experiment`` regenerates one paper figure and prints its table (same
output the benchmark harness saves under benchmarks/results/).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core import (
    ActivationStrategy,
    OptimizationProblem,
    cpu_constraint_violations,
    ft_search,
    internal_completeness,
    strategy_cost,
)
from repro.core.altmetrics import (
    average_replication_factor,
    output_completeness,
)
from repro.core.render import host_load_report, strategy_table
from repro.dsps import (
    PlatformConfig,
    inject_host_crash,
    inject_pessimistic_failures,
    plan_host_crash,
    two_level_trace,
)
from repro.errors import ReproError
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.workloads import ClusterParams, GeneratorParams, generate_application

__all__ = ["main", "build_parser"]

GIGA = 1.0e9


# ----------------------------------------------------------------------
# Bundle I/O
# ----------------------------------------------------------------------

def _write_bundle(path: Path, app) -> None:
    from repro.workloads import save_bundle

    save_bundle(app, path)


def _read_bundle(path: Path):
    from repro.workloads import load_bundle

    app = load_bundle(path)
    payload = {"low_rate": app.low_rate, "high_rate": app.high_rate}
    return app.descriptor, app.deployment, payload


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    params = GeneratorParams(n_pes=args.pes)
    cluster = ClusterParams(
        n_hosts=args.hosts, cores_per_host=args.cores_per_host
    )
    app = generate_application(args.seed, params=params, cluster=cluster)
    _write_bundle(Path(args.out), app)
    print(
        f"generated {app.name}: {args.pes} PEs on {args.hosts} hosts,"
        f" Low {app.low_rate:.2f} t/s, High {app.high_rate:.2f} t/s"
        f" -> {args.out}"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    _, deployment, _ = _read_bundle(Path(args.bundle))
    problem = OptimizationProblem(deployment, ic_target=args.ic)
    result = ft_search(
        problem,
        time_limit=args.time_limit,
        penalty_weight=args.penalty,
        seed_incumbent=True,
        jobs=args.jobs,
    )
    jobs = args.jobs or 1
    engine = "in-process" if jobs == 1 else f"pool({jobs})"
    print(
        f"FT-Search [{engine}]: {result.outcome.value}"
        f" ({result.stats.nodes_expanded} nodes, {result.elapsed:.2f}s)"
    )
    if result.strategy is None:
        print("no strategy found", file=sys.stderr)
        return 1
    print(
        f"cost {result.best_cost / GIGA:.3f} Gcyc/s,"
        f" guaranteed IC {result.best_ic:.3f}"
    )
    result.strategy.to_json(Path(args.out))
    print(f"strategy written to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _, deployment, _ = _read_bundle(Path(args.bundle))
    strategy = ActivationStrategy.from_json(deployment, Path(args.strategy))
    ic = internal_completeness(strategy)
    cost = strategy_cost(strategy)
    violations = cpu_constraint_violations(strategy)
    print(f"strategy: {strategy.name}")
    print(f"  pessimistic IC:        {ic:.3f}")
    print(f"  output completeness:   {output_completeness(strategy):.3f}")
    print(
        "  avg replication:       "
        f"{average_replication_factor(strategy):.3f}"
    )
    print(f"  cost:                  {cost / GIGA:.3f} Gcyc/s")
    if violations:
        print(f"  CPU violations:        {len(violations)} (Eq. 11 broken!)")
        for host, config, load, capacity in violations[:5]:
            print(
                f"    host {host} config {config}:"
                f" {load / GIGA:.2f} >= {capacity / GIGA:.2f} Gcyc/s"
            )
        return 1
    print("  CPU constraint:        satisfied in every configuration")
    if args.verbose:
        print("\nactivation matrix (replica bits per configuration):")
        print(strategy_table(strategy))
        print("\nhost load / capacity (Eq. 11):")
        print(host_load_report(strategy))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import random

    _, deployment, payload = _read_bundle(Path(args.bundle))
    strategy = ActivationStrategy.from_json(deployment, Path(args.strategy))
    trace = two_level_trace(
        payload["low_rate"], payload["high_rate"], duration=args.duration
    )
    extended = ExtendedApplication(
        deployment,
        strategy,
        {source: trace for source in deployment.descriptor.graph.sources},
        platform_config=PlatformConfig(
            arrival_jitter=args.jitter,
            seed=args.seed,
            batching=args.batched,
        ),
        middleware_config=MiddlewareConfig(
            monitor_interval=2.0,
            rate_tolerance=0.25,
            down_confirmation=2,
            dynamic=not args.static,
        ),
    )
    if args.failure == "worst":
        victims = inject_pessimistic_failures(extended.platform, strategy)
        print(f"worst case: crashed {len(victims)} replicas")
    elif args.failure == "crash":
        plan = plan_host_crash(
            extended.platform,
            trace.segment_windows("High"),
            random.Random(args.seed),
        )
        inject_host_crash(extended.platform, plan)
        print(
            f"host crash: {plan.host} at t={plan.crash_time:.1f}s for"
            f" {plan.downtime:.0f}s"
        )
    metrics = extended.run()
    report = {
        "input": metrics.total_input,
        "output": metrics.total_output,
        "processed": metrics.tuples_processed,
        "dropped": metrics.logical_dropped,
        "cpu_seconds": round(metrics.total_cpu_time, 3),
        "config_switches": len(metrics.config_switches),
    }
    print(json.dumps(report, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import FabricProfile
    from repro.obs.report import render_report
    from repro.obs.runner import FAILURE_MODES, run_observed_modes
    from repro.obs.validate import validate_lines

    modes = [m.strip() for m in args.failures.split(",") if m.strip()]
    for mode in modes:
        if mode not in FAILURE_MODES:
            print(f"error: unknown failure mode {mode!r}", file=sys.stderr)
            return 2
    if (args.strategy is None) == (args.ic is None):
        print("error: pass exactly one of --strategy / --ic", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    search = None
    if args.strategy is not None:
        strategy_path = Path(args.strategy)
    else:
        # Optimize first, with progress telemetry on, and keep the
        # resulting strategy next to the other run artifacts.
        from repro.obs.progress import SearchProgress

        _, deployment, _ = _read_bundle(Path(args.bundle))
        problem = OptimizationProblem(deployment, ic_target=args.ic)
        progress = SearchProgress(every=args.progress_every)
        result = ft_search(
            problem,
            time_limit=args.time_limit,
            seed_incumbent=True,
            progress=progress,
        )
        if result.strategy is None:
            print("no strategy found", file=sys.stderr)
            return 1
        strategy_path = out_dir / "strategy.json"
        result.strategy.to_json(strategy_path)
        search = {
            "outcome": result.outcome.value,
            "nodes": result.stats.nodes_expanded,
            "cost": result.best_cost,
            "every": progress.every,
            "snapshots": progress.to_list(),
        }

    profile = FabricProfile(label="obs-run")
    results = run_observed_modes(
        str(args.bundle),
        str(strategy_path),
        modes=modes,
        duration=args.duration,
        seed=args.seed,
        jitter=args.jitter,
        tuple_trace_every=args.trace_every,
        queue_seconds=args.queue_seconds,
        batching=args.batched,
        jobs=args.jobs,
        profile=profile,
    )

    mode_docs = []
    for digest in results:
        jsonl = digest.pop("jsonl")
        events_path = out_dir / f"events-{digest['mode']}.jsonl"
        events_path.write_text(jsonl)
        problems = validate_lines(
            jsonl.splitlines(), origin=str(events_path)
        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        mode_docs.append(digest)

    report = {
        "bundle": str(args.bundle),
        "strategy": str(strategy_path),
        "duration": args.duration,
        "seed": args.seed,
        "modes": mode_docs,
        "search": search,
        "fabric": profile.summary(),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(render_report(report))
    print(f"\nartifacts written to {out_dir}")
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.chaos import (
        CampaignSpec,
        Injection,
        minimize_campaign,
        run_campaigns,
        sabotage_strategy,
        violation_artifact,
        write_artifact,
    )
    from repro.chaos.report import render_chaos_report
    from repro.obs.validate import validate_lines

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Resolve the bundle and the proven strategy: either both given, or
    # generate + optimize a small application into the output directory.
    if args.bundle is not None:
        bundle_path = Path(args.bundle)
    else:
        app = generate_application(
            args.seed,
            params=GeneratorParams(
                n_pes=args.pes, low_rate_range=(2.0, 6.0)
            ),
            cluster=ClusterParams(
                n_hosts=args.hosts, cores_per_host=args.cores_per_host
            ),
        )
        bundle_path = out_dir / "bundle.json"
        _write_bundle(bundle_path, app)
    if args.strategy is not None:
        strategy_path = Path(args.strategy)
    else:
        _, deployment, _ = _read_bundle(bundle_path)
        result = ft_search(
            OptimizationProblem(deployment, ic_target=args.ic),
            time_limit=args.time_limit,
            seed_incumbent=True,
        )
        if result.strategy is None:
            print("no strategy found", file=sys.stderr)
            return 1
        strategy_path = out_dir / "strategy.json"
        result.strategy.to_json(strategy_path)

    base = CampaignSpec(
        bundle=str(bundle_path),
        strategy=str(strategy_path),
        seed=args.seed,
        duration=args.duration,
        n_injections=args.injections,
        heartbeat_interval=args.heartbeat,
        batching=args.batched,
    )

    if args.sabotage:
        # Self-test: break the proven strategy below its bound and
        # demand that the invariant checker catches it and distils a
        # minimized repro artifact.
        _, deployment, _ = _read_bundle(bundle_path)
        reference = ActivationStrategy.from_json(
            deployment, strategy_path
        )
        broken, pe, config = sabotage_strategy(reference)
        broken_path = out_dir / "sabotaged.json"
        broken.to_json(broken_path)
        spec = dataclasses.replace(
            base,
            strategy=str(broken_path),
            reference_strategy=str(strategy_path),
            schedule=(
                Injection.build(
                    "pessimistic", at=max(1.0, args.duration * 0.15)
                ),
            ),
        )
        digests = run_campaigns([spec], jobs=1)
        digest = digests[0]
        if digest["invariants"]["ok"]:
            print(
                f"sabotage NOT caught: deactivated ({pe}, c={config})"
                " below the proven bound yet every invariant held",
                file=sys.stderr,
            )
            return 1
        burn_alerts = [
            alert
            for alert in digest["slo"]["alerts"]
            if alert["state"] == "firing"
        ]
        if not burn_alerts:
            print(
                f"sabotage NOT caught by the SLO engine: deactivated"
                f" ({pe}, c={config}) below the proven bound yet no"
                " burn-rate alert fired",
                file=sys.stderr,
            )
            return 1
        mini_spec, mini_digest = minimize_campaign(spec, digest)
        artifact = violation_artifact(mini_digest, mini_spec)
        artifact_path = write_artifact(
            artifact, out_dir / "sabotage-artifact.json"
        )
        first = digest["invariants"]["violations"][0]
        print(
            f"sabotage caught: ({pe}, c={config}) ->"
            f" [{first['invariant']}] at t={first['time']:.2f}s"
        )
        alert = burn_alerts[0]
        print(
            f"slo alert fired: [{alert['rule']}] at window"
            f" {alert['window']} (burn fast={alert['burn_fast']:.1f}"
            f" slow={alert['burn_slow']:.1f})"
        )
        print(
            f"minimized to {len(mini_digest['schedule'])} injection(s);"
            f" artifact written to {artifact_path}"
        )
        return 0

    specs = [
        dataclasses.replace(base, seed=args.seed + offset)
        for offset in range(args.campaigns)
    ]
    digests = run_campaigns(specs, jobs=args.jobs)

    failures = 0
    for spec, digest in zip(specs, digests):
        jsonl = digest["jsonl"]
        events_path = out_dir / f"events-{spec.seed}.jsonl"
        events_path.write_text(jsonl)
        problems = validate_lines(
            jsonl.splitlines(), origin=str(events_path)
        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        if not digest["invariants"]["ok"]:
            failures += 1
            artifact = violation_artifact(digest, spec)
            artifact_path = write_artifact(
                artifact, out_dir / f"violation-{spec.seed}.json"
            )
            print(
                f"seed {spec.seed}: invariant violated, artifact"
                f" written to {artifact_path}",
                file=sys.stderr,
            )

    report = {
        "meta": {
            "bundle": str(bundle_path),
            "strategy": str(strategy_path),
            "campaigns": args.campaigns,
            "base_seed": args.seed,
            "duration": args.duration,
            "heartbeat": args.heartbeat,
        },
        "campaigns": [
            {k: v for k, v in digest.items() if k != "jsonl"}
            for digest in digests
        ],
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(render_chaos_report(report))
    print(f"artifacts written to {out_dir}")
    return 1 if failures else 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.chaos import load_artifact, replay_artifact

    artifact = load_artifact(args.artifact)
    expected = artifact["first_violation"]["invariant"]
    digest = replay_artifact(artifact)
    violations = digest["invariants"]["violations"]
    if not violations:
        print(
            f"replay did NOT reproduce the {expected!r} violation",
            file=sys.stderr,
        )
        return 1
    first = violations[0]
    reproduced = first["invariant"] == expected
    print(
        f"replayed seed {digest['seed']}:"
        f" [{first['invariant']}] at t={first['time']:.2f}s"
        f" ({'matches' if reproduced else 'differs from'} the artifact)"
    )
    print(first["detail"])
    return 0 if reproduced else 1


def _cmd_chaos_minimize(args: argparse.Namespace) -> int:
    from repro.chaos import (
        load_artifact,
        minimize_campaign,
        violation_artifact,
        write_artifact,
    )
    from repro.chaos.artifact import _spec_from_dict

    artifact = load_artifact(args.artifact)
    spec = _spec_from_dict(artifact["spec"])
    before = len(spec.schedule or ())
    mini_spec, mini_digest = minimize_campaign(spec)
    minimized = violation_artifact(mini_digest, mini_spec)
    target = Path(args.out) if args.out else Path(args.artifact)
    write_artifact(minimized, target)
    print(
        f"schedule minimized {before} -> {len(mini_spec.schedule)}"
        f" injection(s); written to {target}"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.report import render_fleet_report
    from repro.fleet.scenario import FleetScenarioParams, run_fleet_scenario
    from repro.fleet.store import StrategyStore
    from repro.obs.validate import validate_lines

    if args.dataplane:
        return _cmd_fleet_dataplane(args)

    params = FleetScenarioParams(
        tenants=args.tenants,
        distinct_apps=args.apps,
        base_seed=args.seed,
        shared_hosts=args.hosts,
        shared_cores=args.cores,
        drift_every=args.drift_every,
        drift_factor=args.drift_factor,
    )
    store = (
        StrategyStore(args.store_dir) if args.store_dir is not None else None
    )
    result = run_fleet_scenario(params, jobs=args.jobs, store=store)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.jsonl"
    events_path.write_text(result.events_jsonl)
    problems = validate_lines(
        result.events_jsonl.splitlines(), origin=str(events_path)
    )
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    (out_dir / "report.json").write_text(
        json.dumps(result.report, indent=2, sort_keys=True) + "\n"
    )
    print(render_fleet_report(result.report))
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_fleet_dataplane(args: argparse.Namespace) -> int:
    from repro.fleet.dataplane import DataplaneParams
    from repro.fleet.report import render_dataplane_slo_report
    from repro.fleet.scenario import run_fleet_dataplane

    elastic = getattr(args, "elastic", False)
    if elastic:
        from repro.elastic import ElasticParams
        from repro.elastic.scenario import run_elastic_fleet

        params = ElasticParams(
            tenants=args.tenants,
            base_seed=args.seed,
            duration=args.duration,
            chaos_every=args.chaos_every,
            batching=not args.tuple_granular,
        )
        summary, _digests = run_elastic_fleet(params, jobs=args.jobs)
    else:
        params = DataplaneParams(
            tenants=args.tenants,
            base_seed=args.seed,
            duration=args.duration,
            chaos_every=args.chaos_every,
            batching=not args.tuple_granular,
        )
        summary, _digests = run_fleet_dataplane(params, jobs=args.jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataplane.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    totals = summary["totals"]
    mode = "tuple-granular" if args.tuple_granular else "batched"
    label = "elastic dataplane" if elastic else "dataplane"
    print(
        f"{label} ({mode}): {summary['tenants']} tenants,"
        f" {totals['input']} tuples in, {totals['output']} out,"
        f" {totals['fallback_windows']} fallback windows"
        f" ({summary['fallback_seconds']}s)"
    )
    if elastic:
        stats = summary["elastic"]
        print(
            f"elastic: {stats['migrations']} migrations"
            f" ({stats['completed']} completed, {stats['aborted']}"
            f" aborted, {stats['refused']} refused),"
            f" {stats['consolidations']} consolidations,"
            f" {stats['active_core_seconds']} active core-seconds"
        )
    print(f"fleet sha256: {summary['fleet_sha256']}")
    print(render_dataplane_slo_report(summary), end="")
    for item in summary["violations"]:
        print(
            f"violation (tenant {item['tenant']}): {item['violation']}",
            file=sys.stderr,
        )
    if not summary["ok"]:
        return 1
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    """Run the autoscaled diurnal dataplane and write elastic.json.

    Every tenant's event stream is schema-validated (the migration and
    host-lifecycle events are part of ``EVENT_SCHEMA``), and any
    conservation/floor violation makes the command exit 1.
    """
    from repro.elastic import ElasticParams
    from repro.elastic.scenario import run_elastic_fleet
    from repro.obs.validate import validate_lines

    params = ElasticParams(
        tenants=args.tenants,
        base_seed=args.seed,
        duration=args.duration,
        chaos_every=args.chaos_every,
        batching=not args.tuple_granular,
        keep_events=True,
        slo=True,
    )
    summary, digests = run_elastic_fleet(params, jobs=args.jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tenants = []
    for digest in digests:
        jsonl = digest.pop("jsonl")
        events_path = out_dir / f"events-{digest['tenant']}.jsonl"
        events_path.write_text(jsonl)
        problems = validate_lines(
            jsonl.splitlines(), origin=str(events_path)
        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        tenants.append(digest)
    document = {
        "params": {
            "tenants": args.tenants,
            "seed": args.seed,
            "duration": args.duration,
            "chaos_every": args.chaos_every,
            "batching": not args.tuple_granular,
        },
        "fleet": {k: v for k, v in summary.items() if k != "violations"},
        "tenants": tenants,
    }
    (out_dir / "elastic.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    stats = summary["elastic"]
    mode = "tuple-granular" if args.tuple_granular else "batched"
    print(
        f"elastic ({mode}): {summary['tenants']} tenants,"
        f" {stats['migrations']} migrations"
        f" ({stats['completed']} completed, {stats['aborted']} aborted,"
        f" {stats['refused']} refused)"
    )
    print(
        f"autoscaler: {stats['scale_ups']} ups, {stats['scale_downs']}"
        f" downs, {stats['consolidations']} consolidations,"
        f" {stats['moves']} moves"
    )
    print(
        f"core-seconds: {stats['active_core_seconds']} active,"
        f" {stats['reserved_core_seconds']} reserved"
    )
    print(f"fleet sha256: {summary['fleet_sha256']}")
    for item in summary["violations"]:
        print(
            f"violation (tenant {item['tenant']}): {item['violation']}",
            file=sys.stderr,
        )
    if not summary["ok"]:
        return 1
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Per-tenant SLO rollups on a small chaos-seasoned dataplane run.

    Writes ``slo.json`` (the fleet summary plus every tenant's windowed
    rollups — the input format of ``repro obs diff``) and per-tenant
    ``events-<tenant>.jsonl`` streams that are schema-validated here.
    """
    from repro.fleet.dataplane import DataplaneParams
    from repro.fleet.report import render_dataplane_slo_report
    from repro.fleet.scenario import run_fleet_dataplane
    from repro.obs.validate import validate_lines

    params = DataplaneParams(
        tenants=args.tenants,
        base_seed=args.seed,
        duration=args.duration,
        chaos_every=args.chaos_every,
        batching=not args.tuple_granular,
        keep_events=True,
        slo=True,
        slo_window=args.window,
        slo_target=args.objective,
    )
    summary, digests = run_fleet_dataplane(params, jobs=args.jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tenants = []
    for digest in digests:
        jsonl = digest.pop("jsonl")
        events_path = out_dir / f"events-{digest['tenant']}.jsonl"
        events_path.write_text(jsonl)
        problems = validate_lines(
            jsonl.splitlines(), origin=str(events_path)
        )
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        tenants.append(
            {
                "tenant": digest["tenant"],
                "app": digest["app"],
                "log_complete": digest["log_complete"],
                "slo": digest["slo"],
            }
        )
    document = {
        "params": {
            "tenants": args.tenants,
            "seed": args.seed,
            "duration": args.duration,
            "chaos_every": args.chaos_every,
            "window": args.window,
            "objective": args.objective,
            "batching": not args.tuple_granular,
        },
        "fleet": {k: v for k, v in summary.items() if k != "violations"},
        "tenants": tenants,
    }
    (out_dir / "slo.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"slo: {summary['tenants']} tenants,"
        f" {summary['totals']['input']} tuples in,"
        f" fleet sha256 {summary['fleet_sha256']}"
    )
    print(render_dataplane_slo_report(summary), end="")
    for item in summary["violations"]:
        print(
            f"violation (tenant {item['tenant']}): {item['violation']}",
            file=sys.stderr,
        )
    if not summary["ok"]:
        return 1
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_obs_diff(argv: Sequence[str]) -> int:
    """``repro obs diff <runA> <runB>``: window-aligned SLO delta report.

    Dispatched before the main parser (the ``obs`` subcommand has a
    positional bundle argument that would swallow ``diff``).
    """
    from repro.obs.diff import diff_runs, render_diff

    parser = argparse.ArgumentParser(
        prog="repro obs diff",
        description="attribute SLO/metric deltas between two 'repro slo'"
        " artifacts, aligned by tenant and sim-time window",
    )
    parser.add_argument("run_a", help="baseline slo.json (run A)")
    parser.add_argument("run_b", help="candidate slo.json (run B)")
    parser.add_argument(
        "--out", default=None,
        help="also write the canonical diff document to this JSON file",
    )
    args = parser.parse_args(list(argv))

    doc_a = json.loads(Path(args.run_a).read_text())
    doc_b = json.loads(Path(args.run_b).read_text())
    diff = diff_runs(doc_a, doc_b)
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(diff, indent=2, sort_keys=True) + "\n"
        )
    print(render_diff(diff), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    forwarded: list[str] = list(args.paths)
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.out is not None:
        forwarded += ["--out", args.out]
    if args.sarif is not None:
        forwarded += ["--sarif", args.sarif]
    if args.allowlist is not None:
        forwarded += ["--allowlist", args.allowlist]
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.smoke:
        forwarded.append("--smoke")
    return lint_main(forwarded)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        get_cluster_results,
        get_fig3_data,
        get_study_results,
    )
    from repro.experiments import figures

    name = args.figure
    if name == "all":
        from repro.experiments.report_all import generate_report

        target = args.out or "REPORT.md"
        generate_report(path=target, jobs=args.jobs)
        print(f"full report written to {target}")
        return 0
    if name == "fig3":
        print(figures.render_fig3(get_fig3_data()))
    elif name in ("fig4", "fig5", "fig6"):
        study = get_study_results(jobs=args.jobs)
        renderer = getattr(figures, f"render_{name}")
        print(renderer(study))
    elif name in ("fig9", "fig10", "fig11", "fig12"):
        results = get_cluster_results(jobs=args.jobs)
        renderer = getattr(figures, f"render_{name}")
        print(renderer(results))
    else:  # pragma: no cover - argparse choices prevent this
        print(f"unknown figure {name}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LAAR reproduction: generate, optimize, simulate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a calibrated application bundle"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pes", type=int, default=24)
    generate.add_argument("--hosts", type=int, default=4)
    generate.add_argument("--cores-per-host", type=int, default=12)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    optimize = commands.add_parser(
        "optimize", help="run FT-Search on a bundle"
    )
    optimize.add_argument("bundle")
    optimize.add_argument("--ic", type=float, required=True)
    optimize.add_argument("--time-limit", type=float, default=10.0)
    optimize.add_argument("--penalty", type=float, default=None)
    optimize.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "search worker processes (default and 1: the block"
            " engine in-process, no pool)"
        ),
    )
    optimize.add_argument("--out", required=True)
    optimize.set_defaults(func=_cmd_optimize)

    evaluate = commands.add_parser(
        "evaluate", help="score a strategy against the model"
    )
    evaluate.add_argument("bundle")
    evaluate.add_argument("--strategy", required=True)
    evaluate.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the activation matrix and host-load tables",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    simulate = commands.add_parser(
        "simulate", help="run a strategy on the platform simulator"
    )
    simulate.add_argument("bundle")
    simulate.add_argument("--strategy", required=True)
    simulate.add_argument("--duration", type=float, default=60.0)
    simulate.add_argument(
        "--failure", choices=["none", "worst", "crash"], default="none"
    )
    simulate.add_argument("--jitter", type=float, default=0.35)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--static", action="store_true",
        help="run without the Rate Monitor (NR/SR-style)",
    )
    simulate.add_argument(
        "--batched", action="store_true",
        help="use the batched execution engine (identical results,"
        " faster at fleet scale; see docs/performance.md)",
    )
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    obs = commands.add_parser(
        "obs",
        help="run observed simulations and render a telemetry report",
    )
    obs.add_argument("bundle")
    obs.add_argument(
        "--strategy", default=None,
        help="activation strategy JSON to run (or use --ic to optimize)",
    )
    obs.add_argument(
        "--ic", type=float, default=None,
        help="optimize first at this IC target, with search progress"
        " telemetry (mutually exclusive with --strategy)",
    )
    obs.add_argument("--time-limit", type=float, default=10.0)
    obs.add_argument(
        "--progress-every", type=int, default=256,
        help="FT-Search snapshot period in expanded nodes (with --ic)",
    )
    obs.add_argument("--duration", type=float, default=60.0)
    obs.add_argument(
        "--failures", default="none,worst,crash",
        help="comma-separated failure modes to run (none, worst, crash)",
    )
    obs.add_argument("--jitter", type=float, default=0.35)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument(
        "--trace-every", type=int, default=0,
        help="sample every N-th source tuple's lifecycle (0 = off)",
    )
    obs.add_argument(
        "--queue-seconds", type=float, default=2.0,
        help="input-queue sizing in seconds of peak rate (small values"
        " force queue overflows and tuple drops)",
    )
    obs.add_argument(
        "--batched", action="store_true",
        help="use the batched execution engine (byte-identical event"
        " logs, faster at fleet scale)",
    )
    obs.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the per-mode runs (default: serial"
        " resolution via REPRO_JOBS / CPU count)",
    )
    obs.add_argument(
        "--out-dir", default="obs-run",
        help="directory for events-<mode>.jsonl and report.json",
    )
    obs.set_defaults(func=_cmd_obs)

    chaos = commands.add_parser(
        "chaos",
        help="run seeded fault-injection campaigns with SLA invariant"
        " checking (run / replay / minimize)",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="run a sweep of seeded chaos campaigns"
    )
    chaos_run.add_argument(
        "--bundle", default=None,
        help="application bundle to stress (default: generate one)",
    )
    chaos_run.add_argument(
        "--strategy", default=None,
        help="proven activation strategy JSON (default: optimize one)",
    )
    chaos_run.add_argument(
        "--ic", type=float, default=0.5,
        help="IC target when optimizing a strategy (without --strategy)",
    )
    chaos_run.add_argument("--time-limit", type=float, default=10.0)
    chaos_run.add_argument(
        "--seed", type=int, default=0, help="base campaign seed"
    )
    chaos_run.add_argument(
        "--campaigns", type=int, default=5,
        help="how many seeded campaigns to run (seed, seed+1, ...)",
    )
    chaos_run.add_argument(
        "--pes", type=int, default=4,
        help="PE count when generating a bundle (without --bundle)",
    )
    chaos_run.add_argument("--hosts", type=int, default=3)
    chaos_run.add_argument("--cores-per-host", type=int, default=4)
    chaos_run.add_argument("--duration", type=float, default=40.0)
    chaos_run.add_argument(
        "--injections", type=int, default=3,
        help="injections per campaign schedule",
    )
    chaos_run.add_argument(
        "--heartbeat", type=float, default=None,
        help="heartbeat interval for emergent failure detection"
        " (default: abstract detection)",
    )
    chaos_run.add_argument(
        "--batched", action="store_true",
        help="use the batched execution engine (byte-identical digests,"
        " faster at fleet scale)",
    )
    chaos_run.add_argument(
        "--sabotage", action="store_true",
        help="self-test: break the strategy below its proven bound and"
        " require the checker to catch and minimize it",
    )
    chaos_run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the campaign sweep (default:"
        " REPRO_JOBS, then the CPU count; 1 = serial)",
    )
    chaos_run.add_argument(
        "--out-dir", default="chaos-run",
        help="directory for events-<seed>.jsonl, violation artifacts,"
        " and report.json",
    )
    chaos_run.set_defaults(func=_cmd_chaos_run)

    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-run the campaign a violation artifact pins"
    )
    chaos_replay.add_argument("artifact")
    chaos_replay.set_defaults(func=_cmd_chaos_replay)

    chaos_minimize = chaos_sub.add_parser(
        "minimize",
        help="shrink a violation artifact's schedule to a minimal repro",
    )
    chaos_minimize.add_argument("artifact")
    chaos_minimize.add_argument(
        "--out", default=None,
        help="write the minimized artifact here (default: in place)",
    )
    chaos_minimize.set_defaults(func=_cmd_chaos_minimize)

    fleet = commands.add_parser(
        "fleet",
        help="run a multi-tenant fleet scenario and render the"
        " occupancy/SLA report",
    )
    fleet.add_argument(
        "--tenants", type=int, default=100,
        help="how many tenant contracts arrive (default 100)",
    )
    fleet.add_argument(
        "--apps", type=int, default=7,
        help="distinct application templates tenants are drawn from",
    )
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument(
        "--hosts", type=int, default=20,
        help="shared-cluster host count",
    )
    fleet.add_argument(
        "--cores", type=int, default=48,
        help="cores per shared host",
    )
    fleet.add_argument(
        "--drift-every", type=int, default=4,
        help="every Nth tenant's input drifts out of contract (0 = off)",
    )
    fleet.add_argument("--drift-factor", type=float, default=1.1)
    fleet.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the strategy-store prewarm"
        " (default: REPRO_JOBS, then the CPU count; 1 = serial)",
    )
    fleet.add_argument(
        "--store-dir", default=None,
        help="persist the strategy store here (JSON per record);"
        " reused across runs",
    )
    fleet.add_argument(
        "--out-dir", default="fleet-run",
        help="directory for events.jsonl and report.json",
    )
    fleet.add_argument(
        "--dataplane", action="store_true",
        help="run the fleet *data plane* instead of the control plane:"
        " every tenant is a fully simulated stream platform (the"
        " batched engine's headline workload; see docs/performance.md)",
    )
    fleet.add_argument(
        "--duration", type=float, default=30.0,
        help="dataplane only: simulated seconds per tenant",
    )
    fleet.add_argument(
        "--chaos-every", type=int, default=25,
        help="dataplane only: every Nth tenant gets a scripted"
        " mid-run host crash or slow-host window (0 = off)",
    )
    fleet.add_argument(
        "--tuple-granular", action="store_true",
        help="dataplane only: run the plain event kernel instead of"
        " the batched engine (event logs are byte-identical)",
    )
    fleet.add_argument(
        "--elastic", action="store_true",
        help="dataplane only: attach the runtime elasticity layer —"
        " per-tenant autoscaler, live migrations, night-time host"
        " consolidation (see docs/elasticity.md)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    elastic = commands.add_parser(
        "elastic",
        help="run the autoscaled diurnal dataplane (live migrations,"
        " host drains, chaos inside migration windows) and write the"
        " elastic.json artifact (see docs/elasticity.md)",
    )
    elastic.add_argument(
        "--tenants", type=int, default=8,
        help="how many simulated tenants (default 8)",
    )
    elastic.add_argument("--seed", type=int, default=7)
    elastic.add_argument(
        "--duration", type=float, default=12.0,
        help="simulated seconds per tenant (default 12)",
    )
    elastic.add_argument(
        "--chaos-every", type=int, default=4,
        help="every Nth tenant gets scripted chaos; one slot lands a"
        " host kill inside an open migration window (0 = off;"
        " default 4)",
    )
    elastic.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS, then the CPU"
        " count; 1 = serial — the fleet sha256 is identical either"
        " way)",
    )
    elastic.add_argument(
        "--tuple-granular", action="store_true",
        help="run the plain event kernel instead of the batched engine"
        " (event logs are byte-identical)",
    )
    elastic.add_argument(
        "--out-dir", default="elastic-run",
        help="directory for elastic.json and per-tenant event streams",
    )
    elastic.set_defaults(func=_cmd_elastic)

    slo = commands.add_parser(
        "slo",
        help="run a chaos-seasoned dataplane slice with streaming SLO"
        " rollups and write the slo.json artifact 'repro obs diff'"
        " consumes (see docs/observability.md)",
    )
    slo.add_argument(
        "--tenants", type=int, default=10,
        help="how many simulated tenants (default 10)",
    )
    slo.add_argument("--seed", type=int, default=7)
    slo.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated seconds per tenant (default 30)",
    )
    slo.add_argument(
        "--chaos-every", type=int, default=4,
        help="every Nth tenant gets a scripted mid-run host crash or"
        " slow-host window (0 = off; default 4)",
    )
    slo.add_argument(
        "--window", type=float, default=5.0,
        help="SLO rollup window in simulated seconds (default 5)",
    )
    slo.add_argument(
        "--objective", type=float, default=0.999,
        help="availability objective in (0, 1) (default 0.999)",
    )
    slo.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS, then the CPU"
        " count; 1 = serial); slo.* streams are byte-identical at"
        " any value",
    )
    slo.add_argument(
        "--tuple-granular", action="store_true",
        help="run the plain event kernel instead of the batched engine"
        " (slo.* streams are byte-identical either way)",
    )
    slo.add_argument(
        "--out-dir", default="slo-run",
        help="directory for slo.json and events-<tenant>.jsonl",
    )
    slo.set_defaults(func=_cmd_slo)

    lint = commands.add_parser(
        "lint",
        help="run the determinism & event-schema linter (rules R1..R10;"
        " see docs/static-analysis.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="stdout format (default: text diagnostics + summary)",
    )
    lint.add_argument(
        "--out", default=None,
        help="also write the canonical JSON report to this file",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 log to this file (CI upload)",
    )
    lint.add_argument(
        "--allowlist", default=None,
        help="allowlist file (default: ./analysis-allowlist.txt if present)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--smoke", action="store_true",
        help="self-test against the fixture corpus and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper figure (or all of them)"
    )
    experiment.add_argument(
        "figure",
        choices=[
            "fig3", "fig4", "fig5", "fig6",
            "fig9", "fig10", "fig11", "fig12", "all",
        ],
    )
    experiment.add_argument(
        "--out", default=None,
        help="with 'all': report file to write (default REPORT.md)",
    )
    experiment.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the experiment grids"
        " (default: REPRO_JOBS, then the CPU count; 1 = serial)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv_list = list(sys.argv[1:] if argv is None else argv)
    try:
        # 'obs diff' runs on artifacts, not a bundle — dispatch it
        # before the main parser (whose 'obs' subcommand would swallow
        # 'diff' as its positional bundle argument).
        if argv_list[:2] == ["obs", "diff"]:
            return _cmd_obs_diff(argv_list[2:])
        parser = build_parser()
        args = parser.parse_args(argv_list)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
