"""Extension: sensitivity of measured IC to the recovery window.

The paper fixes the host-crash recovery time at 16 s (Streams'
detect-and-migrate latency, from its reference [19]) and the heartbeat
failover at the platform default. This extension sweeps the recovery
window: measured IC under a single host crash degrades gracefully with
downtime, and every point stays above the pessimistic worst-case figure —
the pessimistic model really is the floor.
"""

from __future__ import annotations

from repro.chaos import Injection, apply_injection
from repro.core import OptimizationProblem, ft_search
from repro.dsps import PlatformConfig, two_level_trace
from repro.experiments.report import format_table
from repro.experiments.variants import NODE_LIMIT
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.workloads import ClusterParams, GeneratorParams, generate_application

DOWNTIMES = (4.0, 16.0, 32.0)


def build_runner(app, strategy):
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=90.0, high_fraction=1 / 3
    )

    def run(*schedule):
        extended = ExtendedApplication(
            app.deployment,
            strategy,
            {"src": trace},
            platform_config=PlatformConfig(arrival_jitter=0.3, seed=5),
            middleware_config=MiddlewareConfig(
                monitor_interval=2.0, rate_tolerance=0.25,
                down_confirmation=2,
            ),
        )
        for injection in schedule:
            apply_injection(extended.platform, injection, strategy=strategy)
        return extended.run()

    return run, trace


def test_ext_recovery(benchmark, save_figure):
    app = generate_application(
        seed=52,
        params=GeneratorParams(n_pes=12),
        cluster=ClusterParams(n_hosts=3, cores_per_host=8),
    )
    result = ft_search(
        OptimizationProblem(app.deployment, ic_target=0.5),
        node_limit=NODE_LIMIT,
        seed_incumbent=True,
    )
    assert result.strategy is not None
    run, trace = build_runner(app, result.strategy)

    reference = benchmark.pedantic(run, rounds=1, iterations=1)
    worst = run(Injection.build("pessimistic", at=0.0))
    worst_ic = worst.tuples_processed / max(1, reference.tuples_processed)

    high_start, _ = trace.segment_windows("High")[0]
    crash_host = app.deployment.host_names[0]
    rows = []
    previous_ic = 1.1
    for downtime in DOWNTIMES:
        crashed = run(
            Injection.build(
                "rack_crash",
                at=high_start + 2.0,
                hosts=(crash_host,),
                downtime=downtime,
            )
        )
        measured = crashed.tuples_processed / max(
            1, reference.tuples_processed
        )
        rows.append([f"{downtime:.0f} s", measured, worst_ic])
        # Longer outages can only reduce completeness.
        assert measured <= previous_ic + 0.02
        # The pessimistic model remains the floor.
        assert measured >= worst_ic - 0.02
        previous_ic = measured

    table = format_table(
        ["recovery window", "measured IC (host crash)",
         "worst-case floor"],
        rows,
        title=(
            "Extension - measured IC vs recovery window"
            f" (crash of {crash_host} at the start of the High burst;"
            f" guaranteed IC {result.best_ic:.3f})"
        ),
    )
    save_figure("ext_recovery", table)
