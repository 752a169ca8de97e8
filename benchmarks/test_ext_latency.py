"""Extension: end-to-end latency during load peaks, per variant.

The paper motivates LAAR with queuing latency ("load peaks can lead to
increased processing latency due to data queuing") but reports no latency
numbers. This extension measures them: mean and p99 end-to-end latency
during the High window for each replication variant on one generated
application.

Expected shape: SR's saturated queues push peak latency towards the
2-second queue bound, while the dynamic variants stay near the
service-time floor.
"""

from __future__ import annotations

from repro.dsps import PlatformConfig, two_level_trace
from repro.experiments.report import format_table
from repro.experiments.variants import build_variants
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.workloads import generate_application


def run_variant(variants, name, trace):
    app = variants.app
    extended = ExtendedApplication(
        app.deployment,
        variants.strategies[name],
        {"src": trace},
        platform_config=PlatformConfig(arrival_jitter=0.3, seed=11),
        middleware_config=MiddlewareConfig(
            monitor_interval=2.0,
            rate_tolerance=0.25,
            down_confirmation=2,
            dynamic=variants.is_dynamic(name),
        ),
    )
    return extended.run()


def test_ext_latency(benchmark, save_figure):
    app = generate_application(seed=2015)
    variants = build_variants(app, ic_targets=(0.5,))
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=60.0, high_fraction=1 / 3
    )
    high_start, high_end = trace.segment_windows("High")[0]
    window = (high_start + 4.0, high_end - 1.0)

    results = {}
    for name in variants.names:
        results[name] = run_variant(variants, name, trace)
    benchmark.pedantic(
        lambda: run_variant(variants, "L.5", trace), rounds=1, iterations=1
    )

    rows = []
    for name, metrics in results.items():
        rows.append(
            [
                name,
                metrics.mean_latency(),
                metrics.latency_percentile(0.99),
                metrics.mean_latency_in_window(*window),
            ]
        )
    table = format_table(
        ["variant", "mean latency (s)", "p99 latency (s)",
         "peak-window mean (s)"],
        rows,
        title=(
            "Extension - end-to-end latency per variant"
            " (queues hold 2 s of High input)"
        ),
    )
    save_figure("ext_latency", table)

    peak = {name: metrics.mean_latency_in_window(*window)
            for name, metrics in results.items()}
    # Static replication saturates during the peak: its latency is at
    # least several times every dynamic variant's.
    for name in ("L.5", "GRD", "NR"):
        assert peak["SR"] > 2.0 * peak[name]
    # Dynamic variants stay well under the 2 s queue bound.
    assert peak["L.5"] < 1.0
