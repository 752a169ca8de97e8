"""Cross-cutting properties of the platform simulator.

Conservation laws, determinism, and consistency between the analytic
model (repro.core) and the simulated runtime (repro.dsps) on random
generated applications.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RateTable
from repro.dsps import (
    InputTrace,
    PlatformConfig,
    StreamPlatform,
    TraceSegment,
)
from repro.workloads import ClusterParams, GeneratorParams, generate_application


def small_app(seed):
    return generate_application(
        seed,
        params=GeneratorParams(n_pes=6, tuple_budget=250.0),
        cluster=ClusterParams(n_hosts=2, cores_per_host=6),
    )


def run_app(app, seed=0, duration=20.0, rate=None, jitter=0.0):
    rate = rate if rate is not None else app.low_rate
    platform = StreamPlatform(
        app.deployment,
        {"src": InputTrace([TraceSegment(rate, duration, "Low")])},
        config=PlatformConfig(arrival_jitter=jitter, seed=seed),
    )
    return platform.run(drain=5.0)


class TestConservation:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_per_port_counters_balance(self, seed):
        """received == processed + dropped + still-queued; after the
        drain at an un-overloaded rate nothing stays queued."""
        app = small_app(seed)
        metrics = run_app(app, seed=seed)
        for replica_metrics in metrics.replicas.values():
            assert replica_metrics.received == (
                replica_metrics.processed + replica_metrics.dropped
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_port_counters_sum_to_replica_counters(self, seed):
        app = small_app(seed)
        metrics = run_app(app, seed=seed)
        for replica_metrics in metrics.replicas.values():
            assert replica_metrics.received == sum(
                c.received for c in replica_metrics.ports.values()
            )
            assert replica_metrics.processed == sum(
                c.processed for c in replica_metrics.ports.values()
            )
            assert replica_metrics.busy_time == pytest.approx(
                sum(c.busy_time for c in replica_metrics.ports.values())
            )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_primary_counters_bounded_by_totals(self, seed):
        app = small_app(seed)
        metrics = run_app(app, seed=seed)
        for replica_metrics in metrics.replicas.values():
            assert (
                replica_metrics.processed_as_primary
                <= replica_metrics.processed
            )
            assert (
                replica_metrics.dropped_as_primary
                <= replica_metrics.dropped
            )


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        app = small_app(1)
        first = run_app(app, seed=7, jitter=0.3)
        second = run_app(app, seed=7, jitter=0.3)
        assert first.total_input == second.total_input
        assert first.total_output == second.total_output
        assert first.tuples_processed == second.tuples_processed
        assert first.total_cpu_time == pytest.approx(second.total_cpu_time)

    def test_different_seed_different_arrivals(self):
        app = small_app(1)
        first = run_app(app, seed=7, jitter=0.3)
        second = run_app(app, seed=8, jitter=0.3)
        # Jittered arrivals differ; totals may coincide, series do not.
        a = first.source_series["src"]
        b = second.source_series["src"]
        assert a.bucket_map() != b.bucket_map()


class TestModelAgreement:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_cpu_time_matches_cost_model(self, seed):
        """In an un-overloaded steady state, measured CPU time converges
        to the Eq. 13 integrand for the all-active strategy at the Low
        configuration."""
        app = small_app(seed)
        duration = 30.0
        metrics = run_app(app, duration=duration)
        table = RateTable(app.descriptor)
        # Eq. 13 restricted to the Low configuration (probability 1 over
        # the simulated window), in cycles; convert to CPU seconds.
        expected_cycles_per_s = sum(
            table.replica_load(replica.pe, 0)
            for replica in app.deployment.replicas
        )
        cycles_per_core = app.deployment.hosts[0].cycles_per_core
        expected_cpu_seconds = (
            expected_cycles_per_s * duration / cycles_per_core
        )
        assert metrics.total_cpu_time == pytest.approx(
            expected_cpu_seconds, rel=0.1
        )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_throughput_matches_rate_model(self, seed):
        """Logical tuples processed per second converge to the BIC
        integrand at the Low configuration."""
        app = small_app(seed)
        duration = 30.0
        metrics = run_app(app, duration=duration)
        table = RateTable(app.descriptor)
        expected = table.total_pe_input_rate(0) * duration
        assert metrics.tuples_processed == pytest.approx(expected, rel=0.1)
