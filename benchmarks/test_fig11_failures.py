"""Fig. 11: measured IC under failures.

Top panel — pessimistic worst case (a replica of each PE permanently
crashed): NR processes nothing; each LAAR variant satisfies its promised
IC bound (the paper tolerates rare violations never bigger than ~4.7 %);
GRD gives no consistent guarantee.

Bottom panel — a single host crash with 16 s recovery, forced during a
High window: measured IC is much higher than the guaranteed bounds for
every variant, because the pessimistic model overestimates failures.
"""

from __future__ import annotations

from repro.experiments.cluster import FailureMode
from repro.experiments.figures import (
    fig11_host_crash,
    fig11_worst_case,
    render_fig11,
)

VIOLATION_SLACK = 0.08  # relative slack on the per-app IC bound


def test_fig11_worst_case(benchmark, cluster_results, save_figure):
    stats = benchmark(fig11_worst_case, cluster_results)
    save_figure("fig11_failures", render_fig11(cluster_results))

    means = {variant: s.mean for variant, s in stats.items()}
    # NR fails completely: its only replicas are the crashed ones.
    assert means["NR"] == 0.0
    # Static replication survives almost untouched.
    assert means["SR"] > 0.85
    # Each LAAR variant honours its IC bound on average, with the small
    # transition-induced slack the paper also observes.
    for variant, target in (("L.5", 0.5), ("L.6", 0.6), ("L.7", 0.7)):
        assert means[variant] >= target * (1.0 - VIOLATION_SLACK), (
            f"{variant} worst-case IC {means[variant]:.3f} violates"
            f" its bound {target}"
        )
    # The IC knob is monotone: higher targets process more.
    assert means["L.5"] < means["L.6"] < means["L.7"]
    # The judge: no checked second of any worst-case run falls below
    # its variant's proven floor (a shortfall above is transition lag).
    for variant in cluster_results.variant_names:
        below = cluster_results.below_floor_seconds(variant, FailureMode.WORST)
        assert sum(below) == 0.0, variant


def test_fig11_host_crash(benchmark, cluster_results):
    worst = {v: s.mean for v, s in fig11_worst_case(cluster_results).items()}
    crash = {v: s.mean for v, s in benchmark(fig11_host_crash, cluster_results).items()}

    # A recoverable single-host crash is far milder than the pessimistic
    # model for the variants with deactivated replicas. (SR is the one
    # exception by construction: its pessimistic worst case is nearly
    # harmless — every PE keeps an active survivor — while a host crash
    # transiently silences half its replicas, so the two sit within a
    # point of each other.)
    for variant in ("NR", "GRD", "L.5", "L.6", "L.7"):
        assert crash[variant] >= worst[variant] - 1e-9
    assert crash["SR"] >= worst["SR"] - 0.03
    # And the LAAR variants comfortably exceed their guarantees.
    for variant, target in (("L.5", 0.5), ("L.6", 0.6), ("L.7", 0.7)):
        assert crash[variant] > target


def test_fig11_uses_both_failure_modes(benchmark, cluster_results):
    # The grid actually contains worst-case and crash runs.
    benchmark(lambda: None)
    sample_app = cluster_results.apps[0]
    cluster_results.get(sample_app, "SR", FailureMode.WORST)
    crash_app = cluster_results.crash_apps[0]
    cluster_results.get(crash_app, "SR", FailureMode.CRASH)
