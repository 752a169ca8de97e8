"""Tests for the fleet controller (admission, drift, re-plan, evict)."""

from __future__ import annotations

import pytest

from repro.core import Host
from repro.errors import ModelError
from repro.fleet.controller import (
    FleetController,
    TenantClass,
    TenantSpec,
    scale_configuration_space,
    scale_descriptor_rates,
)
from repro.fleet.scenario import tenant_application
from repro.obs import Telemetry

BRONZE = TenantClass("bronze", ic_target=0.3)
GOLD = TenantClass("gold", ic_target=0.6)
IMPOSSIBLE = TenantClass("impossible", ic_target=1.0)

@pytest.fixture(scope="module")
def app():
    return tenant_application(7)


def spec(app, name="t0", tenant_class=BRONZE):
    return TenantSpec(
        name=name,
        descriptor=app.descriptor,
        slice_hosts=tuple(app.deployment.hosts),
        tenant_class=tenant_class,
    )


def controller(hosts=None, sustain_checks=2, **kwargs):
    hosts = hosts or [Host(f"s{i}", cores=16) for i in range(4)]
    return FleetController(
        hosts, Telemetry(), sustain_checks=sustain_checks, **kwargs
    )


class TestScaling:
    def test_scale_configuration_space(self, app):
        space = app.descriptor.configuration_space
        scaled = scale_configuration_space(space, 2.0)
        for before, after in zip(space, scaled):
            assert after.probability == before.probability
            assert after.label == before.label
            for source in space.sources:
                assert after.rate_of(source) == 2.0 * before.rate_of(source)

    def test_scale_descriptor_keeps_everything_else(self, app):
        scaled = scale_descriptor_rates(app.descriptor, 1.5)
        assert scaled.name == app.descriptor.name
        assert scaled.graph.to_dict() == app.descriptor.graph.to_dict()
        payload = scaled.to_dict()
        original = app.descriptor.to_dict()
        assert payload["edge_profiles"] == original["edge_profiles"]

    def test_bad_factor_rejected(self, app):
        with pytest.raises(ModelError):
            scale_descriptor_rates(app.descriptor, 0.0)


class TestAdmission:
    def test_admit_reserves_and_emits(self, app):
        ctl = controller()
        assert ctl.submit(spec(app)) == "admitted"
        assert ctl.counters()["admitted"] == 1
        assert ctl.pool.tenants == ("t0",)
        events = ctl._telemetry.events.of_type("fleet.admit")
        assert len(events) == 1
        fields = events[0].fields
        assert fields["tenant"] == "t0"
        assert fields["cores"] == sum(
            len(app.deployment.replicas_on(h))
            for h in app.deployment.host_names
        )
        assert fields["cache"] is False

    def test_sla_reject_emits_and_reserves_nothing(self, app):
        ctl = controller()
        decision = ctl.submit(spec(app, tenant_class=IMPOSSIBLE))
        assert decision == "rejected:sla"
        assert ctl.pool.tenants == ()
        [event] = ctl._telemetry.events.of_type("fleet.reject")
        assert event.fields["reason"] == "sla"

    def test_capacity_reject(self, app):
        ctl = controller(hosts=[Host("only", cores=64)])
        # The tenant needs three distinct shared hosts; one exists.
        assert ctl.submit(spec(app)) == "rejected:capacity"
        [event] = ctl._telemetry.events.of_type("fleet.reject")
        assert event.fields["reason"] == "capacity"

    def test_second_tenant_hits_store(self, app):
        ctl = controller()
        ctl.submit(spec(app, name="t0"))
        ctl.submit(spec(app, name="t1"))
        admits = ctl._telemetry.events.of_type("fleet.admit")
        assert [e.fields["cache"] for e in admits] == [False, True]
        assert ctl.store.hits == 1

    def test_duplicate_name_rejected(self, app):
        ctl = controller()
        ctl.submit(spec(app))
        with pytest.raises(ModelError, match="already submitted"):
            ctl.submit(spec(app))


class TestDriftAndReplan:
    def drifted_rates(self, app, factor):
        space = app.descriptor.configuration_space
        heaviest = space[space.sorted_by_total_rate()[0]]
        return {s: r * factor for s, r in sorted(heaviest.rates.items())}

    def test_sustained_drift_triggers_warm_replan(self, app):
        ctl = controller(sustain_checks=2)
        ctl.submit(spec(app))
        rates = self.drifted_rates(app, 1.05)
        ctl.observe_rates("t0", rates)
        assert ctl.replans_attempted == 0  # one fallback is not sustained
        ctl.observe_rates("t0", rates)
        assert ctl.replans_attempted == 1
        [event] = ctl._telemetry.events.of_type("fleet.replan")
        assert event.fields["warm"] is True
        assert event.fields["feasible"] is True
        assert event.fields["factor"] == pytest.approx(1.05)
        fallbacks = ctl._telemetry.events.of_type("config.fallback")
        assert all(e.fields["tenant"] == "t0" for e in fallbacks)
        # The replanned contract covers the drifted rates: no more
        # fallbacks, no second replan.
        ctl.observe_rates("t0", rates)
        ctl.observe_rates("t0", rates)
        assert ctl.replans_attempted == 1
        assert ctl.tenants["t0"].status == "active"
        assert ctl.tenants["t0"].drift_factor == pytest.approx(1.05)

    def test_in_contract_observations_reset_the_streak(self, app):
        ctl = controller(sustain_checks=2)
        ctl.submit(spec(app))
        out = self.drifted_rates(app, 1.05)
        calm = self.drifted_rates(app, 1.0)
        ctl.observe_rates("t0", out)
        ctl.observe_rates("t0", calm)
        ctl.observe_rates("t0", out)
        assert ctl.replans_attempted == 0

    def test_infeasible_replan_evicts(self, app):
        ctl = controller(sustain_checks=1)
        ctl.submit(spec(app, tenant_class=GOLD))
        # Massive drift: the scaled problem cannot meet the IC bound.
        ctl.observe_rates("t0", self.drifted_rates(app, 50.0))
        assert ctl.evicted == 1
        assert ctl.tenants["t0"].status == "evicted"
        assert ctl.pool.tenants == ()  # cores returned
        [replan] = ctl._telemetry.events.of_type("fleet.replan")
        assert replan.fields["feasible"] is False
        [evict] = ctl._telemetry.events.of_type("fleet.evict")
        assert evict.fields == {"tenant": "t0", "reason": "sla"}
        # Late monitor samples for the evicted tenant are ignored.
        ctl.observe_rates("t0", self.drifted_rates(app, 50.0))
        assert ctl.replans_attempted == 1

    def test_unknown_tenant_observations_ignored(self, app):
        ctl = controller()
        ctl.observe_rates("ghost", {"src": 1.0})
        assert ctl.replans_attempted == 0

    def test_replan_result_is_memoised(self, app):
        ctl = controller(sustain_checks=1)
        ctl.submit(spec(app, name="t0"))
        ctl.submit(spec(app, name="t1"))
        rates = self.drifted_rates(app, 1.05)
        ctl.observe_rates("t0", rates)
        ctl.observe_rates("t1", rates)
        replans = ctl._telemetry.events.of_type("fleet.replan")
        assert len(replans) == 2
        # Same app, class and factor: the second replan hits the store
        # and reports the same search effort.
        assert replans[0].fields["nodes"] == replans[1].fields["nodes"]
        assert ctl.replans_feasible == 2


class TestValidation:
    def test_sustain_checks_bounds(self):
        with pytest.raises(ModelError):
            controller(sustain_checks=0)
