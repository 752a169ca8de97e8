"""Command-line interface: the LAAR workflow end-to-end.

The CLI mirrors the deployment workflow of Fig. 7 on *application bundle*
files — a single JSON document holding the descriptor, the replicated
deployment, and the source rates:

    python -m repro generate --seed 0 --pes 24 --out app.json
    python -m repro optimize app.json --ic 0.5 --out strategy.json
    python -m repro evaluate app.json --strategy strategy.json
    python -m repro obs app.json --strategy strategy.json --failures worst
    python -m repro obs app.json --ic 0.5 --out-dir obs-run

``obs`` runs the telemetry workflow (docs/observability.md): one
observed, judged simulation per failure mode of Sec. 5.3 (``none``,
``worst``, ``crash``), canonical JSONL event streams, and a rendered
report with the switch timeline, failover windows, top
droppers, FT-Search progress, and fabric utilization.

The paper's figures are not a subcommand: ``pytest benchmarks``
renders each one into ``benchmarks/results/``.

The tenant fleet is one command. ``fleet --dataplane [--elastic]`` runs
every tenant as a simulated stream platform with its SLO taps on and
writes ``dataplane.json`` (``{params, fleet, tenants}``; the tenants
carry their SLO rollups) plus one ``events-<tenant>.jsonl`` each;
``obs diff`` reads two such documents:

    python -m repro fleet --dataplane --tenants 10 --seed 7 --out-dir a
    python -m repro fleet --dataplane --tenants 10 --seed 11 --out-dir b
    python -m repro obs diff a/dataplane.json b/dataplane.json

The scenario subcommands (``obs``, ``chaos run``, ``fleet``) are thin:
parse, build the frozen specs, run them, and hand the streams, the JSON
document and the rendered text to :func:`repro.driver.deliver`, which
owns artifact naming, schema validation, violation printing and the
exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from repro.core.optimizer.ftsearch import NODE_LIMIT
from repro.core.render import host_load_report, strategy_table
from repro.errors import ReproError
from repro.workloads import (
    ClusterParams,
    GeneratorParams,
    generate_application,
    load_bundle,
    save_bundle,
)

__all__ = ["main", "build_parser"]

GIGA = 1.0e9


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    params = GeneratorParams(n_pes=args.pes)
    cluster = ClusterParams(
        n_hosts=args.hosts, cores_per_host=args.cores_per_host
    )
    app = generate_application(args.seed, params=params, cluster=cluster)
    save_bundle(app, Path(args.out))
    print(
        f"generated {app.name}: {args.pes} PEs on {args.hosts} hosts,"
        f" Low {app.low_rate:.2f} t/s, High {app.high_rate:.2f} t/s"
        f" -> {args.out}"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    deployment = load_bundle(args.bundle).deployment
    problem = OptimizationProblem(deployment, ic_target=args.ic)
    result = ft_search(
        problem,
        node_limit=args.node_limit,
        seed_incumbent=True,
    )
    print(
        f"FT-Search: {result.outcome.value}"
        f" ({result.stats.nodes_expanded} nodes)"
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
    deployment = load_bundle(args.bundle).deployment
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


def _resolve_strategy(
    args: argparse.Namespace, bundle_path: Path, out_dir: Path, progress=None
):
    """The strategy a scenario runs: ``--strategy`` if given, else
    FT-Search's best at ``--ic``, kept as ``strategy.json`` next to the
    other run artifacts.

    Returns ``(path, search result or None)``; the path is ``None`` —
    after saying so on stderr — when the search found no strategy.
    """
    if args.strategy is not None:
        return Path(args.strategy), None
    out_dir.mkdir(parents=True, exist_ok=True)
    deployment = load_bundle(bundle_path).deployment
    result = ft_search(
        OptimizationProblem(deployment, ic_target=args.ic),
        node_limit=args.node_limit,
        seed_incumbent=True,
        progress=progress,
    )
    if result.strategy is None:
        print("no strategy found", file=sys.stderr)
        return None, result
    strategy_path = out_dir / "strategy.json"
    result.strategy.to_json(strategy_path)
    return strategy_path, result


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.chaos import (
        PAPER_MODES,
        CampaignSpec,
        paper_campaigns,
        run_campaigns,
    )
    from repro.driver import deliver, take_streams
    from repro.experiments.parallel import FabricProfile
    from repro.obs.progress import SearchProgress
    from repro.obs.report import render_report

    modes = [m.strip() for m in args.failures.split(",") if m.strip()]
    unknown = [m for m in modes if m not in PAPER_MODES]
    problem = (
        f"unknown failure mode {unknown[0]!r}" if unknown
        else "no failure mode given" if not modes
        else "repeated failure mode" if len(set(modes)) < len(modes)
        else "pass exactly one of --strategy / --ic"
        if (args.strategy is None) == (args.ic is None)
        else None
    )
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    # With --ic the search runs with progress telemetry on.
    progress = SearchProgress(every=args.progress_every)
    strategy_path, result = _resolve_strategy(
        args, Path(args.bundle), out_dir, progress
    )
    if strategy_path is None:
        return 1
    search = None
    if result is not None:
        search = {
            "outcome": result.outcome.value,
            "nodes": result.stats.nodes_expanded,
            "cost": result.best_cost,
            "every": progress.every,
            "snapshots": progress.to_list(),
        }

    profile = FabricProfile(label="obs-run")
    base = CampaignSpec(
        bundle=str(args.bundle),
        strategy=str(strategy_path),
        seed=args.seed,
        duration=args.duration,
        jitter=args.jitter,
        queue_seconds=args.queue_seconds,
        batching=args.batched,
        tuple_trace_every=args.trace_every,
    )
    specs = paper_campaigns(base, modes)
    digests = [
        {"mode": mode, **digest}
        for mode, digest in zip(
            modes, run_campaigns(specs, jobs=args.jobs, profile=profile)
        )
    ]
    streams = take_streams(digests, "mode")
    report = {
        "bundle": str(args.bundle),
        "strategy": str(strategy_path),
        "duration": args.duration,
        "seed": args.seed,
        "modes": digests,
        "search": search,
        "fabric": profile.summary(),
    }
    code = deliver(
        out_dir,
        "report.json",
        report,
        render_report(report) + "\n",
        streams=streams,
        sort_keys=False,
    )
    violated = [d["mode"] for d in digests if not d["invariants"]["ok"]]
    if violated:
        print(f"invariant violated in mode(s) {violated}", file=sys.stderr)
    return 1 if violated else code


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos import (
        CampaignSpec,
        run_campaigns,
        sabotage_self_test,
        violation_artifact,
        write_artifact,
    )
    from repro.chaos.report import render_chaos_report
    from repro.driver import deliver, take_streams

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Without --bundle, generate a small application into the out-dir.
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
        save_bundle(app, bundle_path)
    strategy_path, _ = _resolve_strategy(args, bundle_path, out_dir)
    if strategy_path is None:
        return 1

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
        caught, lines = sabotage_self_test(base, out_dir)
        print("\n".join(lines), file=sys.stdout if caught else sys.stderr)
        return 0 if caught else 1

    specs = [
        dataclasses.replace(base, seed=args.seed + offset)
        for offset in range(args.campaigns)
    ]
    digests = run_campaigns(specs, jobs=args.jobs)

    # A violated invariant leaves a repro artifact (which quotes the
    # event stream, so before the streams are taken) and fails the
    # sweep — after the report is delivered all the same.
    failures = 0
    for spec, digest in zip(specs, digests):
        if not digest["invariants"]["ok"]:
            failures += 1
            artifact_path = write_artifact(
                violation_artifact(digest, spec),
                out_dir / f"violation-{spec.seed}.json",
            )
            print(
                f"seed {spec.seed}: invariant violated, artifact"
                f" written to {artifact_path}",
                file=sys.stderr,
            )
    streams = take_streams(digests, "seed")
    report = {
        "meta": {
            "bundle": str(bundle_path),
            "strategy": str(strategy_path),
            "campaigns": args.campaigns,
            "base_seed": args.seed,
            "duration": args.duration,
            "heartbeat": args.heartbeat,
        },
        "campaigns": digests,
    }
    code = deliver(
        out_dir,
        "report.json",
        report,
        render_chaos_report(report),
        streams=streams,
    )
    return 1 if failures else code


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
    from repro.chaos.artifact import spec_from_dict

    artifact = load_artifact(args.artifact)
    spec = spec_from_dict(artifact["spec"])
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
    from repro.driver import deliver
    from repro.fleet.report import render_fleet_report
    from repro.fleet.scenario import FleetScenarioParams, run_fleet_scenario
    from repro.fleet.store import StrategyStore

    if args.dataplane:
        return _cmd_fleet_dataplane(args)
    if args.elastic or args.tuple_granular:
        print(
            "error: --elastic and --tuple-granular are dataplane options;"
            " pass --dataplane with them",
            file=sys.stderr,
        )
        return 2

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
    return deliver(
        Path(args.out_dir),
        "report.json",
        result.report,
        render_fleet_report(result.report),
        streams=[(None, result.events_jsonl)],
    )


def _cmd_fleet_dataplane(args: argparse.Namespace) -> int:
    """Run the fleet data plane: every tenant a simulated platform with
    its SLO taps, one ``events-<tenant>.jsonl`` each (schema-validated)
    and ``dataplane.json`` — ``{params, fleet, tenants}``, the input of
    ``repro obs diff``. Any conservation or no-output violation makes
    the command exit 1."""
    from repro.driver import deliver, run_tenants, take_streams
    from repro.elastic import ElasticParams
    from repro.fleet.dataplane import DataplaneParams
    from repro.fleet.report import render_dataplane_slo_report

    params_type = ElasticParams if args.elastic else DataplaneParams
    batching = not args.tuple_granular
    summary, digests = run_tenants(
        params_type(
            tenants=args.tenants,
            base_seed=args.seed,
            duration=args.duration,
            chaos_every=args.chaos_every,
            batching=batching,
            keep_events=True,
        ),
        jobs=args.jobs,
    )
    streams = take_streams(digests, "tenant")
    totals = summary["totals"]
    mode = "batched" if batching else "tuple-granular"
    label = "elastic dataplane" if args.elastic else "dataplane"
    lines = [
        f"{label} ({mode}): {summary['tenants']} tenants,"
        f" {totals['input']} tuples in, {totals['output']} out,"
        f" {totals['fallback_windows']} fallback windows"
        f" ({summary['fallback_seconds']}s)"
    ]
    if args.elastic:
        stats = summary["elastic"]
        lines.append(
            f"elastic: {stats['migrations']} migrations"
            f" ({stats['completed']} completed, {stats['aborted']}"
            f" aborted, {stats['refused']} refused),"
            f" {stats['consolidations']} consolidations,"
            f" {stats['active_core_seconds']} active core-seconds"
        )
    lines.append(f"fleet sha256: {summary['fleet_sha256']}")
    lines.append(render_dataplane_slo_report(summary).rstrip("\n"))
    document = {
        "params": {
            "tenants": args.tenants,
            "seed": args.seed,
            "duration": args.duration,
            "chaos_every": args.chaos_every,
            "batching": batching,
        },
        "fleet": {k: v for k, v in summary.items() if k != "violations"},
        "tenants": digests,
    }
    return deliver(
        Path(args.out_dir),
        "dataplane.json",
        document,
        "\n".join(lines),
        streams=streams,
        violations=summary["violations"],
    )


def _cmd_obs_diff(argv: Sequence[str]) -> int:
    """``repro obs diff <runA> <runB>``: window-aligned SLO delta report.

    Dispatched before the main parser (the ``obs`` subcommand has a
    positional bundle argument that would swallow ``diff``).
    """
    from repro.obs.diff import diff_runs, load_slo_document, render_diff

    parser = argparse.ArgumentParser(
        prog="repro obs diff",
        description="attribute SLO/metric deltas between two"
        " 'repro fleet --dataplane' documents, aligned by tenant and"
        " sim-time window",
    )
    parser.add_argument("run_a", help="baseline dataplane.json (run A)")
    parser.add_argument("run_b", help="candidate dataplane.json (run B)")
    parser.add_argument(
        "--out", default=None,
        help="also write the canonical diff document to this JSON file",
    )
    args = parser.parse_args(list(argv))

    diff = diff_runs(
        load_slo_document(args.run_a), load_slo_document(args.run_b)
    )
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(diff, indent=2, sort_keys=True) + "\n"
        )
    print(render_diff(diff), end="")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

#: ``--node-limit`` of ``optimize``, ``obs`` and ``chaos run``.
_NODE_LIMIT_HELP = "FT-Search budget in expanded nodes (default %(default)s)"

#: ``--batched`` on a LAAR bundle (``obs``, ``chaos run``).
_BATCHED_HELP = (
    "run under the batched execution engine: byte-identical event logs"
    " and digests, not faster here — closed form engages only for"
    " single-source fan-in-free deployments with selectivity <= 1 and"
    " one replica per host (the fleet/elastic data plane); see"
    " docs/performance.md"
)


def _add_laar_run_options(
    parser: argparse.ArgumentParser,
    *,
    ic_default: Optional[float],
    out_dir: str,
    artifacts: str,
) -> None:
    """The option family of a scenario on a bundle (``obs``, ``chaos
    run``): the strategy is given or optimized into the out-dir, the
    runs fan out over ``--jobs`` workers."""
    parser.add_argument(
        "--strategy", default=None,
        help="activation strategy JSON to run (default: optimize one at"
        " --ic and keep it in the out-dir)",
    )
    parser.add_argument(
        "--ic", type=float, default=ic_default,
        help="IC target when optimizing a strategy (without --strategy)",
    )
    parser.add_argument("--node-limit", type=int, default=NODE_LIMIT,
                        help=_NODE_LIMIT_HELP)
    parser.add_argument("--batched", action="store_true", help=_BATCHED_HELP)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the runs (default: REPRO_JOBS, then"
        " the CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--out-dir", default=out_dir, help=f"directory for {artifacts}"
    )


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
    optimize.add_argument("--node-limit", type=int, default=NODE_LIMIT,
                          help=_NODE_LIMIT_HELP)
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

    obs = commands.add_parser(
        "obs",
        help="run observed simulations and render a telemetry report",
    )
    obs.add_argument("bundle")
    # Exactly one of --strategy / --ic; the search runs with progress
    # telemetry on.
    _add_laar_run_options(
        obs,
        ic_default=None,
        out_dir="obs-run",
        artifacts="events-<mode>.jsonl and report.json",
    )
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
    _add_laar_run_options(
        chaos_run,
        ic_default=0.5,
        out_dir="chaos-run",
        artifacts="events-<seed>.jsonl, violation artifacts, and"
        " report.json",
    )
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
        "--sabotage", action="store_true",
        help="self-test: break the strategy below its proven bound and"
        " require the checker to catch and minimize it",
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
        help="how many tenants (default %(default)s)",
    )
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument(
        "--duration", type=float, default=30.0,
        help="dataplane only: simulated seconds per tenant (default"
        " %(default)s)",
    )
    fleet.add_argument(
        "--chaos-every", type=int, default=25,
        help="dataplane only: every Nth tenant gets a chaos injection — a"
        " mid-run host crash or slow-host window, and with --elastic one"
        " slot a migration_strike inside an open migration window (0 ="
        " off; default %(default)s)",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS, then the CPU"
        " count; 1 = serial); every artifact is byte-identical at any"
        " value",
    )
    fleet.add_argument(
        "--tuple-granular", action="store_true",
        help="dataplane only: run the plain event kernel instead of the"
        " batched engine (event logs are byte-identical)",
    )
    fleet.add_argument(
        "--out-dir", default="fleet-run",
        help="directory for events.jsonl and report.json (with"
        " --dataplane: dataplane.json and events-<tenant>.jsonl)",
    )
    fleet.add_argument(
        "--apps", type=int, default=7,
        help="distinct application templates tenants are drawn from",
    )
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
        "--store-dir", default=None,
        help="persist the strategy store here (JSON per record);"
        " reused across runs",
    )
    fleet.add_argument(
        "--dataplane", action="store_true",
        help="run the fleet *data plane* instead of the control plane:"
        " every tenant is a fully simulated stream platform with"
        " streaming SLO rollups (the batched engine's headline workload;"
        " 'repro obs diff' reads its dataplane.json; see"
        " docs/performance.md and docs/observability.md)",
    )
    fleet.add_argument(
        "--elastic", action="store_true",
        help="dataplane only: attach the runtime elasticity layer —"
        " per-tenant autoscaler, live migrations, night-time host"
        " consolidation (see docs/elasticity.md)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    # Listed here for ``repro --help`` only: main() hands everything
    # after ``lint`` to the linter's own parser (repro.analysis.cli).
    commands.add_parser(
        "lint",
        help="run the determinism & event-schema linter (rules R1..R10;"
        " see docs/static-analysis.md)",
    )

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
        if argv_list[:1] == ["lint"]:
            from repro.analysis.cli import main as lint_main

            return lint_main(argv_list[1:])
        parser = build_parser()
        args = parser.parse_args(argv_list)
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
