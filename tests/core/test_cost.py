"""Tests for the cost model (Eq. 13) and CPU constraint (Eq. 11)."""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationStrategy,
    Host,
    ReplicaId,
    ReplicatedDeployment,
    cost_breakdown,
    cpu_constraint_violations,
    host_load_table,
    strategy_cost,
)
from repro.errors import ModelError

GIGA = 1.0e9


class TestStrategyCost:
    def test_all_active_pipeline_cost(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        # Low: 2 PEs x 2 replicas x 0.4e9 x 0.8 = 1.28e9;
        # High: 2 x 2 x 0.8e9 x 0.2 = 0.64e9.
        assert strategy_cost(strategy) == pytest.approx(1.92 * GIGA)

    def test_single_replica_costs_half(self, pipeline_deployment):
        full = ActivationStrategy.all_active(pipeline_deployment)
        single = ActivationStrategy.single_replica(
            pipeline_deployment, {"pe1": 0, "pe2": 0}
        )
        assert strategy_cost(single) == pytest.approx(
            strategy_cost(full) / 2.0
        )

    def test_cost_scales_with_billing_period(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        assert strategy_cost(strategy, billing_period=300.0) == pytest.approx(
            300.0 * strategy_cost(strategy)
        )

    def test_cost_rejects_bad_period(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        with pytest.raises(ModelError):
            strategy_cost(strategy, billing_period=-1.0)

    def test_deactivation_strictly_reduces_cost(self, pipeline_deployment):
        full = ActivationStrategy.all_active(pipeline_deployment)
        reduced = full.replace({(ReplicaId("pe2", 1), 1): False})
        assert strategy_cost(reduced) < strategy_cost(full)


class TestCostBreakdown:
    def test_breakdown_sums_to_total(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        breakdown = cost_breakdown(strategy)
        assert breakdown.total == pytest.approx(strategy_cost(strategy))
        assert sum(breakdown.per_config.values()) == pytest.approx(
            breakdown.total
        )
        assert sum(breakdown.per_host.values()) == pytest.approx(
            breakdown.total
        )

    def test_per_host_split_is_even_for_symmetric_placement(
        self, pipeline_deployment
    ):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        breakdown = cost_breakdown(strategy)
        values = list(breakdown.per_host.values())
        assert values[0] == pytest.approx(values[1])


class TestHostLoads:
    def tight_deployment(self, descriptor):
        hosts = [Host("h0", cores=1, cycles_per_core=GIGA),
                 Host("h1", cores=1, cycles_per_core=GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        return ReplicatedDeployment(descriptor, hosts, assignment, 2)

    def test_host_load_table(self, pipeline_descriptor):
        deployment = self.tight_deployment(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        table = host_load_table(strategy)
        assert table[("h0", 0)] == pytest.approx(0.8 * GIGA)
        assert table[("h0", 1)] == pytest.approx(1.6 * GIGA)

    def test_violations_found_in_high_config(self, pipeline_descriptor):
        deployment = self.tight_deployment(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment)
        violations = cpu_constraint_violations(strategy)
        assert {(host, c) for host, c, _, _ in violations} == {
            ("h0", 1),
            ("h1", 1),
        }

    def test_deactivation_clears_violations(self, pipeline_descriptor):
        deployment = self.tight_deployment(pipeline_descriptor)
        strategy = ActivationStrategy.all_active(deployment).replace(
            {
                (ReplicaId("pe1", 1), 1): False,
                (ReplicaId("pe2", 0), 1): False,
            }
        )
        assert cpu_constraint_violations(strategy) == []

    def test_exact_capacity_counts_as_violation(self, pipeline_descriptor):
        """Eq. 11 is strict: load == K leaves no headroom and is rejected."""
        hosts = [Host("h0", cores=1, cycles_per_core=0.8 * GIGA),
                 Host("h1", cores=1, cycles_per_core=0.8 * GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, 2
        )
        single = ActivationStrategy.single_replica(
            deployment, {"pe1": 0, "pe2": 0}
        )
        # Replica 0 of both PEs lives on h0: Low load = 0.8e9 == capacity,
        # which the strict inequality rejects.
        violations = cpu_constraint_violations(single)
        assert ("h0", 0) in {(host, c) for host, c, _, _ in violations}
