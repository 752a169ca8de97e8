"""Tests for the NR / SR / GRD baseline variants (Sec. 5.2)."""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationStrategy,
    Host,
    ReplicaId,
    ReplicatedDeployment,
    cpu_constraint_violations,
    greedy_deactivation,
    non_replicated,
    static_replication,
    strategy_cost,
)
from repro.errors import OptimizationError

GIGA = 1.0e9


@pytest.fixture
def tight_deployment(pipeline_descriptor):
    """Single-core hosts: High overloads with full replication (Fig. 3)."""
    hosts = [Host("h0", cores=1, cycles_per_core=GIGA),
             Host("h1", cores=1, cycles_per_core=GIGA)]
    assignment = {
        ReplicaId("pe1", 0): "h0",
        ReplicaId("pe1", 1): "h1",
        ReplicaId("pe2", 0): "h1",
        ReplicaId("pe2", 1): "h0",
    }
    return ReplicatedDeployment(pipeline_descriptor, hosts, assignment, 2)


class TestStaticReplication:
    def test_everything_active(self, pipeline_deployment):
        strategy = static_replication(pipeline_deployment)
        for replica in pipeline_deployment.replicas:
            assert strategy.activations_of(replica) == (True, True)


class TestNonReplicated:
    def test_derived_from_reference_high_activations(self, pipeline_deployment):
        # Reference keeps only replica 1 of pe1 in High.
        reference = static_replication(pipeline_deployment).replace(
            {(ReplicaId("pe1", 0), 1): False}
        )
        nr = non_replicated(reference, high_config_index=1)
        # pe1: only replica 1 was active in High -> keep replica 1.
        assert nr.activations_of(ReplicaId("pe1", 1)) == (True, True)
        assert nr.activations_of(ReplicaId("pe1", 0)) == (False, False)
        # pe2: both were active -> lowest index (0) kept.
        assert nr.activations_of(ReplicaId("pe2", 0)) == (True, True)
        assert nr.activations_of(ReplicaId("pe2", 1)) == (False, False)

    def test_single_replica_everywhere(self, pipeline_deployment):
        reference = static_replication(pipeline_deployment)
        nr = non_replicated(reference, 1)
        for pe in ("pe1", "pe2"):
            for c in range(2):
                assert nr.active_count(pe, c) == 1

    def test_rejects_reference_without_active_replica(
        self, pipeline_deployment
    ):
        dead = ActivationStrategy(
            pipeline_deployment,
            {
                (replica, c): False
                for replica in pipeline_deployment.replicas
                for c in range(2)
            },
            require_one_active=False,
        )
        with pytest.raises(OptimizationError):
            non_replicated(dead, 1)


class TestGreedy:
    def test_resolves_high_overload(self, tight_deployment):
        strategy = greedy_deactivation(tight_deployment)
        assert cpu_constraint_violations(strategy) == []

    def test_keeps_full_replication_where_it_fits(self, tight_deployment):
        strategy = greedy_deactivation(tight_deployment)
        # Low fits fully replicated (0.8e9 per host), so greedy leaves it.
        assert strategy.active_count("pe1", 0) == 2
        assert strategy.active_count("pe2", 0) == 2

    def test_deactivates_just_enough(self, tight_deployment):
        strategy = greedy_deactivation(tight_deployment)
        # High: each host carries 1.6e9; dropping one replica per host
        # brings it to 0.8e9. Exactly one PE replica per host goes.
        assert strategy.active_count("pe1", 1) + strategy.active_count(
            "pe2", 1
        ) == 2

    def test_prefers_upstream_pes(self, tight_deployment):
        strategy = greedy_deactivation(tight_deployment)
        # pe1 and pe2 consume the same CPU; the upstream-first heuristic
        # deactivates pe1 before pe2 on the first overloaded host.
        assert strategy.active_count("pe1", 1) == 1

    def test_cost_between_nr_and_sr(self, tight_deployment):
        sr = static_replication(tight_deployment)
        grd = greedy_deactivation(tight_deployment)
        nr = non_replicated(grd, 1)
        assert strategy_cost(nr) < strategy_cost(grd)
        assert strategy_cost(grd) < strategy_cost(sr)

    def test_raises_when_unfixable(self, pipeline_descriptor):
        # Hosts so small that even one replica of each PE overloads them.
        hosts = [Host("h0", cores=1, cycles_per_core=0.1 * GIGA),
                 Host("h1", cores=1, cycles_per_core=0.1 * GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h1",
            ReplicaId("pe2", 1): "h0",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, 2
        )
        with pytest.raises(OptimizationError, match="stuck"):
            greedy_deactivation(deployment)
