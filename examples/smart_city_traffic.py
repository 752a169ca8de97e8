"""Smart-city traffic control: the paper's motivating scenario.

The introduction motivates LAAR with an application that controls traffic
light signals from periodic vehicle position reports: during rush hour
(high system load) it is preferable to compute on incomplete information
than to delay control decisions, while off-peak accuracy matters.

This example models that application explicitly:

    vehicles --> ingest --> map_match --+--> zone_north --> congestion --> signal_ctl
                                        +--> zone_south --/
                                        +--> incidents  ------------------^

Vehicle reports arrive at 6 t/s off-peak (70 % of the day) and 14 t/s
during rush hour. The application runs replicated on three city-cloud
hosts sized so rush hour overloads full replication. The operator signs
an SLA with IC >= 0.6 — the redundancy of position reports tolerates 40 %
loss under worst-case failures.

The script computes the LAAR strategy, then simulates rush hour with a
host crash (16 s detection + migration, as measured for Streams in the
paper's reference [19]) and reports the measured completeness against the
guarantee.

Run:  python examples/smart_city_traffic.py
"""

import random

from repro.chaos import apply_injection, paper_schedule
from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    OptimizationProblem,
    ft_search,
    internal_completeness,
    static_replication,
)
from repro.dsps import PlatformConfig, two_level_trace
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement

GIGA = 1.0e9


def build_traffic_application() -> ApplicationDescriptor:
    graph = ApplicationGraph.build(
        sources=["vehicles"],
        pes=[
            "ingest",
            "map_match",
            "zone_north",
            "zone_south",
            "incidents",
            "congestion",
            "signal_ctl",
        ],
        sinks=["signal_plan"],
        edges=[
            ("vehicles", "ingest"),
            ("ingest", "map_match"),
            ("map_match", "zone_north"),
            ("map_match", "zone_south"),
            ("map_match", "incidents"),
            ("zone_north", "congestion"),
            ("zone_south", "congestion"),
            ("incidents", "signal_ctl"),
            ("congestion", "signal_ctl"),
            ("signal_ctl", "signal_plan"),
        ],
    )
    space = ConfigurationSpace.two_level(
        "vehicles", low_rate=6.0, high_rate=14.0, low_probability=0.7
    )
    cost = lambda ms: ms * 1e-3 * GIGA  # noqa: E731 - ms on a 1 GHz core
    profiles = {
        ("vehicles", "ingest"): EdgeProfile(1.0, cost(18.0)),
        ("ingest", "map_match"): EdgeProfile(1.0, cost(35.0)),
        # Each report lands in one zone; roughly half per zone.
        ("map_match", "zone_north"): EdgeProfile(0.5, cost(22.0)),
        ("map_match", "zone_south"): EdgeProfile(0.5, cost(22.0)),
        # Few reports indicate incidents.
        ("map_match", "incidents"): EdgeProfile(0.1, cost(15.0)),
        ("zone_north", "congestion"): EdgeProfile(1.0, cost(28.0)),
        ("zone_south", "congestion"): EdgeProfile(1.0, cost(28.0)),
        ("incidents", "signal_ctl"): EdgeProfile(1.0, cost(10.0)),
        ("congestion", "signal_ctl"): EdgeProfile(1.0, cost(30.0)),
    }
    return ApplicationDescriptor(
        graph, profiles, space, name="smart-city-traffic"
    )


def main() -> None:
    descriptor = build_traffic_application()
    hosts = [
        Host("city-a", cores=5, cycles_per_core=0.28 * GIGA),
        Host("city-b", cores=5, cycles_per_core=0.28 * GIGA),
        Host("city-c", cores=5, cycles_per_core=0.28 * GIGA),
    ]
    deployment = balanced_placement(descriptor, hosts, replication_factor=2)

    print("rush-hour overload with full replication:",
          deployment.overloaded_hosts(1) or "none")

    result = ft_search(OptimizationProblem(deployment, ic_target=0.6))
    if result.strategy is None:
        raise SystemExit(f"no strategy found: {result.outcome.value}")
    print(f"FT-Search: {result.outcome.value}, guaranteed IC"
          f" {result.best_ic:.3f} (SLA 0.6)")
    sr_ic = internal_completeness(static_replication(deployment))
    print(f"static replication worst-case IC would be {sr_ic:.3f},"
          " but rush hour overloads it\n")

    # One simulated 'day': 3 minutes with a 60 s rush-hour burst.
    trace = two_level_trace(6.0, 14.0, duration=180.0, high_fraction=1 / 3)
    platform_config = PlatformConfig(arrival_jitter=0.3, seed=7)
    middleware_config = MiddlewareConfig(
        monitor_interval=2.0, rate_tolerance=0.25, down_confirmation=2
    )

    # Reference run: no failures.
    reference = ExtendedApplication(
        deployment, result.strategy, {"vehicles": trace},
        platform_config=platform_config,
        middleware_config=middleware_config,
    )
    best = reference.run()

    # Drill: crash a random city host during rush hour, 16 s recovery.
    drill = ExtendedApplication(
        deployment, result.strategy, {"vehicles": trace},
        platform_config=platform_config,
        middleware_config=middleware_config,
    )
    (crash,) = paper_schedule("crash", deployment, trace, random.Random(99))
    apply_injection(drill.platform, crash)
    failed = drill.run()

    (host,) = crash.param("hosts")
    print(f"host crash drill: {host} down at t={crash.at:.0f}s"
          f" for {crash.param('downtime'):.0f}s (during rush hour)")
    measured = failed.tuples_processed / max(1, best.tuples_processed)
    print(f"  signal plans emitted: {failed.total_output}"
          f" (failure-free: {best.total_output})")
    print(f"  measured completeness: {measured:.3f}"
          f"  >= guaranteed {result.best_ic:.3f}: {measured >= result.best_ic}")
    print(f"  reports dropped at queues: {failed.logical_dropped}")
    print(f"  configuration switches: {len(failed.config_switches)}")


if __name__ == "__main__":
    main()
