"""Generality: the platform and baselines support k != 2.

FT-Search is k=2 only (like the paper), but the model, deployment,
baselines and simulator are written for arbitrary replication factors;
these tests keep that true.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationStrategy,
    Host,
    internal_completeness,
    static_replication,
    greedy_deactivation,
)
from repro.dsps import InputTrace, StreamPlatform, TraceSegment
from repro.chaos import pessimistic_victims
from repro.placement import balanced_placement

GIGA = 1.0e9


@pytest.fixture
def triple_deployment(pipeline_descriptor):
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.6 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.6 * GIGA),
        Host("h2", cores=2, cycles_per_core=0.6 * GIGA),
    ]
    return balanced_placement(
        pipeline_descriptor, hosts, replication_factor=3
    )


class TestTripleReplication:
    def test_placement_spreads_three_replicas(self, triple_deployment):
        for pe in ("pe1", "pe2"):
            homes = {
                triple_deployment.host_of(r)
                for r in triple_deployment.replicas_of(pe)
            }
            assert len(homes) == 3

    def test_static_replication_ic_one(self, triple_deployment):
        strategy = static_replication(triple_deployment)
        assert internal_completeness(strategy) == pytest.approx(1.0)

    def test_partial_activation_breaks_pessimistic_phi(
        self, triple_deployment
    ):
        """With k=3 the pessimistic model still demands *all* replicas
        active for phi = 1 (Eq. 14 generalises to k)."""
        from repro.core import ReplicaId

        strategy = static_replication(triple_deployment).replace(
            {(ReplicaId("pe2", 2), 1): False}
        )
        assert not strategy.fully_replicated("pe2", 1)
        assert internal_completeness(strategy) < 1.0

    def test_greedy_deactivation_works_for_k3(self, triple_deployment):
        strategy = greedy_deactivation(triple_deployment)
        for pe in ("pe1", "pe2"):
            for c in range(2):
                assert strategy.active_count(pe, c) >= 1

    def test_simulation_runs_with_three_replicas(self, triple_deployment):
        strategy = ActivationStrategy.all_active(triple_deployment)
        platform = StreamPlatform(
            triple_deployment,
            {"src": InputTrace([TraceSegment(4.0, 20.0, "Low")])},
            initial_active=strategy.active_map(0),
        )
        metrics = platform.run()
        assert metrics.total_output == metrics.total_input
        # Three replicas per PE process everything; one is primary.
        for pe in ("pe1", "pe2"):
            processed = [
                metrics.replica(r).processed
                for r in triple_deployment.replicas_of(pe)
            ]
            assert all(p == metrics.total_input for p in processed)

    def test_pessimistic_victims_defined_for_k3(self, triple_deployment):
        strategy = static_replication(triple_deployment)
        victims = pessimistic_victims(strategy)
        assert set(victims) == {"pe1", "pe2"}

    def test_two_replica_failures_survived(self, triple_deployment):
        """k=3 static replication survives two replica crashes of the
        same PE — the depth-of-redundancy the paper's k=2 cannot give."""
        from repro.core import ReplicaId

        platform = StreamPlatform(
            triple_deployment,
            {"src": InputTrace([TraceSegment(4.0, 30.0, "Low")])},
        )
        platform.env.schedule_at(
            5.0, lambda: platform.crash_replica(ReplicaId("pe1", 0))
        )
        platform.env.schedule_at(
            10.0, lambda: platform.crash_replica(ReplicaId("pe1", 1))
        )
        metrics = platform.run()
        # Two failovers of ~1 s each at 4 t/s: small bounded loss.
        assert metrics.total_output >= metrics.total_input - 12
