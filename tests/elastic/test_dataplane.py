"""Tests for the autoscaled diurnal dataplane (repro.elastic.dataplane)."""

from __future__ import annotations

from dataclasses import replace

from repro.elastic import (
    ElasticParams,
    ElasticTask,
    run_elastic_tenant,
    summarize_elastic,
)
from repro.elastic.dataplane import peak_window, tenant_roles
from repro.driver import run_tenants as run_elastic_fleet
from repro.fleet.dataplane import tenant_platform

PARAMS = ElasticParams(tenants=4, duration=10.0, chaos_every=4)


def digest_for(tenant, params=PARAMS, batching=None):
    return run_elastic_tenant(ElasticTask(params, tenant, batching))


class TestTenantRun:
    def test_digest_reports_elasticity_and_no_violations(self):
        digest = digest_for(0)
        assert digest["violations"] == []
        stats = digest["elastic"]
        assert stats["migrations"] > 0
        assert stats["scale_downs"] > 0
        assert stats["active_core_seconds"] > 0
        # Tenant 3's peak starts mid-run (phase-staggered), leaving a
        # trough before it, so the morning scale-up actually has
        # standbys to activate.
        later = digest_for(3)["elastic"]
        assert later["scale_ups"] > 0

    def test_batched_and_tuple_granular_agree_per_tenant(self):
        for tenant in range(PARAMS.tenants):
            batched = digest_for(tenant, batching=True)
            granular = digest_for(tenant, batching=False)
            assert batched["events_sha256"] == granular["events_sha256"], (
                f"tenant {tenant} diverged between execution modes"
            )

    def test_autoscaling_saves_core_hours(self):
        elastic = digest_for(0)
        static = digest_for(0, params=replace(PARAMS, autoscale=False))
        assert (
            elastic["elastic"]["active_core_seconds"]
            < static["elastic"]["active_core_seconds"]
        )
        assert static["elastic"]["migrations"] == 0

    def test_chaos_mid_migration_aborts_and_rolls_back(self):
        # Tenant 1 is the rebalancer slot whose migration_strike lands
        # inside its post-peak move window.
        digest = digest_for(1)
        assert digest["elastic"]["aborted"] >= 1
        assert digest["violations"] == []

    def test_consolidating_tenant_reclaims_capacity(self):
        consolidator = digest_for(0)
        rebalancer = digest_for(1)
        assert consolidator["elastic"]["consolidations"] >= 1
        assert (
            consolidator["elastic"]["reserved_core_seconds"]
            < rebalancer["elastic"]["reserved_core_seconds"]
        )


class TestRoles:
    def test_roles_are_disjoint(self):
        for tenant in range(8):
            consolidates, rebalances = tenant_roles(tenant)
            assert not (consolidates and rebalances)
        assert tenant_roles(0) == (True, False)
        assert tenant_roles(1) == (False, True)

    def test_peak_window_inside_run(self):
        for tenant in range(4):
            platform = tenant_platform(ElasticTask(PARAMS, tenant))
            start, end = peak_window(platform)
            platform.close()
            assert 0.0 <= start < end <= PARAMS.duration


class TestFleet:
    def test_fleet_sha_is_worker_count_invariant(self):
        serial, _ = run_elastic_fleet(PARAMS, jobs=1)
        parallel, _ = run_elastic_fleet(PARAMS, jobs=2)
        assert serial["fleet_sha256"] == parallel["fleet_sha256"]
        assert serial["ok"] is True

    def test_summary_folds_elastic_block(self):
        digests = [digest_for(t) for t in range(PARAMS.tenants)]
        summary = summarize_elastic(digests)
        assert summary["elastic"]["migrations"] == sum(
            d["elastic"]["migrations"] for d in digests
        )
        assert summary["tenants"] == PARAMS.tenants
