"""Tests for the Sec. 3 service model (contracts, pricing, provisioning)."""

from __future__ import annotations

import math

import pytest

from repro.core import Host, static_replication
from repro.dsps import two_level_trace
from repro.dsps.metrics import LatencyRecorder, RunMetrics
from repro.errors import InfeasibleError, ModelError, OptimizationError
from repro.fleet.store import StrategyStore
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.service import (
    SLA,
    Contract,
    PricingPlan,
    Provisioner,
)

GIGA = 1.0e9


@pytest.fixture
def provider_hosts():
    return [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]


@pytest.fixture
def pipeline_contract(pipeline_descriptor):
    return Contract(
        descriptor=pipeline_descriptor,
        sla=SLA(ic_target=0.5, max_latency=1.5),
        pricing=PricingPlan(base_fee=10.0, cpu_rate=0.01,
                            billing_period=3600.0),
        name="pipeline-deal",
    )


class TestValidation:
    def test_sla_bounds(self):
        with pytest.raises(ModelError):
            SLA(ic_target=1.2)
        with pytest.raises(ModelError):
            SLA(ic_target=0.5, max_latency=0.0)
        with pytest.raises(ModelError):
            SLA(ic_target=0.5, latency_percentile=0.0)

    def test_pricing_bounds(self):
        with pytest.raises(ModelError):
            PricingPlan(base_fee=-1.0)
        with pytest.raises(ModelError):
            PricingPlan(billing_period=0.0)

    def test_provider_needs_hosts(self):
        with pytest.raises(ModelError):
            Provisioner(hosts=[])


class TestPricing:
    def test_fare_tracks_cpu_time(self, pipeline_deployment):
        plan = PricingPlan(base_fee=5.0, cpu_rate=0.02,
                           billing_period=1000.0)
        strategy = static_replication(pipeline_deployment)
        # SR: 1.92e9 cycles/s expected; hosts at 1e9 cycles/core-s ->
        # 1.92 core-s per second -> 1920 core-s per period.
        assert plan.fare(strategy) == pytest.approx(5.0 + 0.02 * 1920.0)

    def test_longer_period_costs_more(self, pipeline_deployment):
        strategy = static_replication(pipeline_deployment)
        short = PricingPlan(cpu_rate=1.0, billing_period=100.0)
        long = PricingPlan(cpu_rate=1.0, billing_period=200.0)
        assert long.fare(strategy) == pytest.approx(
            2.0 * short.fare(strategy)
        )


class TestProvisioning:
    def test_provision_meets_sla(
        self, pipeline_contract, provider_hosts
    ):
        provisioned = Provisioner(provider_hosts).provision(
            pipeline_contract
        )
        assert provisioned.guaranteed_ic >= 0.5 - 1e-9
        assert provisioned.fare > pipeline_contract.pricing.base_fee

    def test_laar_fare_below_static_fare(
        self, pipeline_contract, provider_hosts
    ):
        provisioned = Provisioner(provider_hosts).provision(
            pipeline_contract
        )
        sr_fare = pipeline_contract.pricing.fare(
            static_replication(provisioned.deployment)
        )
        assert provisioned.fare < sr_fare

    def test_stricter_sla_costs_more(
        self, pipeline_descriptor, provider_hosts
    ):
        pricing = PricingPlan(cpu_rate=1.0)
        fares = []
        for target in (0.4, 0.6):
            contract = Contract(
                descriptor=pipeline_descriptor,
                sla=SLA(ic_target=target),
                pricing=pricing,
            )
            fares.append(Provisioner(provider_hosts).provision(contract).fare)
        assert fares[0] <= fares[1]

    def test_impossible_sla_is_refused(
        self, pipeline_descriptor, provider_hosts
    ):
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=1.0),  # High overloads at full replication
            pricing=PricingPlan(),
        )
        with pytest.raises(InfeasibleError, match="no strategy"):
            Provisioner(provider_hosts).provision(contract)


class TestProvisionerEdgeCases:
    def test_infeasible_error_names_contract_target_and_outcome(
        self, pipeline_descriptor, provider_hosts
    ):
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=1.0),
            pricing=PricingPlan(),
            name="doomed-deal",
        )
        with pytest.raises(InfeasibleError) as excinfo:
            Provisioner(provider_hosts).provision(contract)
        message = str(excinfo.value)
        assert "doomed-deal" in message  # which contract
        assert "IC >= 1.0" in message  # which clause failed
        assert "NUL" in message  # proven infeasible, not a timeout

    def test_zero_and_negative_billing_periods_rejected(self):
        """Degenerate pricing plans fail validation instead of dividing
        by zero inside fare computation."""
        with pytest.raises(ModelError, match="billing period"):
            PricingPlan(billing_period=0.0)
        with pytest.raises(ModelError, match="billing period"):
            PricingPlan(billing_period=-1.0)

    def test_tiny_billing_period_yields_finite_fare(
        self, pipeline_deployment
    ):
        plan = PricingPlan(cpu_rate=1.0, billing_period=1e-9)
        fare = plan.fare(static_replication(pipeline_deployment))
        assert math.isfinite(fare)
        assert fare >= 0.0


class TestStrategyStoreIntegration:
    def test_second_provision_hits_the_store(
        self, pipeline_contract, provider_hosts
    ):
        store = StrategyStore()
        provisioner = Provisioner(provider_hosts, node_limit=None, store=store)
        first = provisioner.provision(pipeline_contract)
        assert not first.from_cache
        second = provisioner.provision(pipeline_contract)
        assert second.from_cache
        assert store.hits == 1 and store.misses == 1
        # The cached strategy activates identically and prices the same.
        assert second.strategy.to_dict() == first.strategy.to_dict()
        assert second.fare == first.fare
        assert second.search.best_cost == first.search.best_cost
        assert second.search.best_ic == first.search.best_ic

    def test_store_shared_across_provisioners(
        self, pipeline_contract, provider_hosts
    ):
        store = StrategyStore()
        Provisioner(
            provider_hosts, node_limit=None, store=store
        ).provision(pipeline_contract)
        other = Provisioner(provider_hosts, node_limit=None, store=store)
        assert other.provision(pipeline_contract).from_cache

    def test_different_search_budget_misses(
        self, pipeline_contract, provider_hosts
    ):
        """A record is only reused by an identically-configured search."""
        store = StrategyStore()
        Provisioner(
            provider_hosts, node_limit=None, store=store
        ).provision(pipeline_contract)
        limited = Provisioner(
            provider_hosts,
            node_limit=10_000,
            store=store,
        )
        assert not limited.provision(pipeline_contract).from_cache
        assert len(store) == 2

    def test_search_signature_is_pinned(self, provider_hosts):
        """Persisted stores are keyed by this string: a record is reused
        only while the search's one budget, in nodes, is the same."""
        provisioner = Provisioner(provider_hosts, node_limit=200_000)
        assert provisioner._search_signature() == (
            "ftsearch:nodes=200000:seed=1"
        )

    def test_a_wall_clock_budget_is_refused(self, provider_hosts):
        """FT-Search reads no clock: ``search_time_limit`` accepts only
        None."""
        with pytest.raises(OptimizationError, match="in nodes"):
            Provisioner(provider_hosts, search_time_limit=3.0)

    def test_infeasible_result_cached_and_refused_again(
        self, pipeline_descriptor, provider_hosts
    ):
        store = StrategyStore()
        provisioner = Provisioner(provider_hosts, node_limit=None, store=store)
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=1.0),
            pricing=PricingPlan(),
        )
        with pytest.raises(InfeasibleError):
            provisioner.provision(contract)
        assert len(store) == 1
        with pytest.raises(InfeasibleError, match="NUL"):
            provisioner.provision(contract)
        assert store.hits == 1  # the second refusal ran no search

    def test_warm_start_reaches_the_search(
        self, pipeline_contract, provider_hosts
    ):
        provisioner = Provisioner(provider_hosts, node_limit=None)
        cold = provisioner.provision(pipeline_contract)
        warm = provisioner.provision(
            pipeline_contract, warm_start=cold.strategy
        )
        assert warm.strategy.to_dict() == cold.strategy.to_dict()
        assert warm.search.best_cost == cold.search.best_cost
        assert (
            warm.search.stats.nodes_expanded
            <= cold.search.stats.nodes_expanded
        )


class TestSLAReport:
    def run_provisioned(self, provisioned, duration=60.0):
        trace = {"src": two_level_trace(4.0, 8.0, duration=duration)}
        app = ExtendedApplication(
            provisioned.deployment,
            provisioned.strategy,
            trace,
            middleware_config=MiddlewareConfig(monitor_interval=1.0),
        )
        return app.run()

    def test_compliant_run(self, pipeline_contract, provider_hosts):
        provisioned = Provisioner(provider_hosts).provision(
            pipeline_contract
        )
        metrics = self.run_provisioned(provisioned)
        report = provisioned.sla_report(metrics)
        assert report.ic_clause_met
        assert report.latency_clause_met
        assert report.compliant
        assert report.observed_latency is not None
        assert report.observed_latency <= 1.5

    def test_latency_violation_detected(
        self, pipeline_descriptor, provider_hosts
    ):
        """An SLA with an absurdly tight latency bound is violated by the
        same (otherwise healthy) run."""
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=0.5, max_latency=0.01),
            pricing=PricingPlan(),
        )
        provisioned = Provisioner(provider_hosts).provision(contract)
        metrics = self.run_provisioned(provisioned)
        report = provisioned.sla_report(metrics)
        assert report.ic_clause_met
        assert not report.latency_clause_met
        assert not report.compliant

    def test_no_latency_clause_always_met(
        self, pipeline_descriptor, provider_hosts
    ):
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=0.5),
            pricing=PricingPlan(),
        )
        provisioned = Provisioner(provider_hosts).provision(contract)
        metrics = self.run_provisioned(provisioned, duration=30.0)
        report = provisioned.sla_report(metrics)
        assert report.observed_latency is None
        assert report.latency_clause_met

    def test_no_sink_samples_do_not_meet_a_latency_clause(
        self, pipeline_descriptor, provider_hosts
    ):
        """A run that delivered nothing observed no latency: that is
        ``None`` and a missed clause, not 0.0 s under a 10 ms bound."""
        contract = Contract(
            descriptor=pipeline_descriptor,
            sla=SLA(ic_target=0.5, max_latency=0.01),
            pricing=PricingPlan(),
        )
        provisioned = Provisioner(provider_hosts).provision(contract)
        metrics = RunMetrics(sink_latency={"sink": LatencyRecorder()})
        report = provisioned.sla_report(metrics)
        assert report.ic_clause_met
        assert report.observed_latency is None
        assert not report.latency_clause_met
        assert not report.compliant
