"""Tenants of one application share it; nothing leaks between them.

`tenant_app` is memoised per process, so every tenant of a variant
runs on the same deployment, descriptor, graph and rate table. Sharing
is sound only if a tenant's run is a function of its task alone: these
tests run drawn tenants of one variant against a warm memo and again
each on a cold one, count the memo's misses (a count, never a time),
and prove the shared structures refuse writes.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Component, ComponentKind
from repro.elastic.dataplane import (
    ElasticParams,
    ElasticTask,
    run_elastic_tenant,
)
from repro.fleet import dataplane
from repro.fleet.dataplane import (
    APP_MEMO_SIZE,
    DataplaneParams,
    TenantTask,
    build_tenant_platform,
    run_tenant,
    tenant_app,
)

memo = dataplane._tenant_app


@st.composite
def shared_variant(draw, elastic: bool):
    """Params plus three tenants of one variant — the crash slot, the
    degrade slot and a clean one — in a drawn order."""
    # Coprime by construction, so every (variant, chaos slot) pair has
    # a tenant below distinct_apps * chaos_every.
    distinct_apps = draw(st.sampled_from([1, 3, 5]))
    chaos_every = draw(st.sampled_from([4, 8]))
    cls = ElasticParams if elastic else DataplaneParams
    params = cls(
        tenants=distinct_apps * chaos_every,
        distinct_apps=distinct_apps,
        base_seed=draw(st.integers(0, 10_000)),
        n_pes=draw(st.integers(2, 4)),
        n_hosts=draw(st.integers(2, 4)),
        duration=draw(st.sampled_from([6.0, 8.0])),
        phases=draw(st.integers(1, 4)),
        chaos_every=chaos_every,
        chaos_downtime=1.5,
        batching=draw(st.booleans()),
    )
    variant = draw(st.integers(0, distinct_apps - 1))
    of_variant = [
        t for t in range(params.tenants) if t % distinct_apps == variant
    ]
    by_slot = {t % chaos_every: t for t in reversed(of_variant)}
    clean = next(
        t
        for t in of_variant
        if t % chaos_every not in (0, chaos_every // 2)
    )
    tenants = [by_slot[0], by_slot[chaos_every // 2], clean]
    return params, draw(st.permutations(tenants))


def _isolated(run_one, make_task, tenants):
    """Digests of ``tenants`` run on a warm memo, then each alone on a
    cold one."""
    memo.cache_clear()
    warm = [run_one(make_task(t)) for t in tenants]
    assert memo.cache_info().misses == 1  # one application, shared
    cold = []
    for tenant in tenants:
        memo.cache_clear()
        cold.append(run_one(make_task(tenant)))
    return warm, cold


class TestSharedApplicationIsolation:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shared_variant(elastic=False))
    def test_fleet_tenants_agree_warm_and_cold(self, case):
        params, tenants = case
        warm, cold = _isolated(
            run_tenant, lambda t: TenantTask(params, t), tenants
        )
        for shared, alone in zip(warm, cold):
            assert shared["events_sha256"] == alone["events_sha256"]
            assert shared == alone

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shared_variant(elastic=True))
    def test_elastic_tenants_agree_warm_and_cold(self, case):
        params, tenants = case
        warm, cold = _isolated(
            run_elastic_tenant, lambda t: ElasticTask(params, t), tenants
        )
        for shared, alone in zip(warm, cold):
            assert shared["events_sha256"] == alone["events_sha256"]
            assert shared == alone

    def test_tenants_of_a_variant_hold_the_same_objects(self):
        params = DataplaneParams(tenants=8, distinct_apps=4, duration=6.0)
        first = build_tenant_platform(params, 1, True).deployment
        second = build_tenant_platform(params, 5, False).deployment
        other = build_tenant_platform(params, 2, True).deployment
        assert first is second
        assert first.descriptor.rate_table is second.descriptor.rate_table
        assert other is not first


class TestMemoCensus:
    def test_misses_equal_distinct_apps(self):
        params = DataplaneParams(distinct_apps=5, n_pes=2, duration=6.0)
        memo.cache_clear()
        for tenant in range(3 * params.distinct_apps):
            build_tenant_platform(params, tenant, True)
        info = memo.cache_info()
        assert info.misses == params.distinct_apps
        assert info.hits == 2 * params.distinct_apps
        assert info.maxsize == APP_MEMO_SIZE

    def test_the_static_twin_adds_no_miss(self):
        """The key is the fields `tenant_app` reads, not the params
        object: runs that differ in anything else share applications
        (keyed on the whole object, the elastic run and its static
        twin each filled the memo — twice the resident set)."""
        params = ElasticParams(distinct_apps=5, n_pes=2, duration=6.0)
        memo.cache_clear()
        for tenant in range(params.distinct_apps):
            tenant_app(params, tenant)
        misses = memo.cache_info().misses
        others = [
            dataclasses.replace(params, autoscale=False),
            dataclasses.replace(params, duration=9.0, chaos_every=3),
            DataplaneParams(distinct_apps=5, n_pes=2, batching=True),
        ]
        for twin in others:
            for tenant in range(params.distinct_apps):
                assert tenant_app(twin, tenant) is tenant_app(params, tenant)
        assert memo.cache_info().misses == misses == params.distinct_apps

    def test_every_field_read_is_in_the_key(self):
        base = DataplaneParams()
        memo.cache_clear()
        reference = tenant_app(base, 0)
        for change in (
            {"base_seed": 8},
            {"n_pes": 5},
            {"n_hosts": 5},
        ):
            changed = tenant_app(dataclasses.replace(base, **change), 0)
            assert changed is not reference, change
            assert (
                changed.deployment.to_dict(),
                changed.deployment.descriptor.to_dict(),
            ) != (
                reference.deployment.to_dict(),
                reference.deployment.descriptor.to_dict(),
            ), change


class TestSharedStructuresRefuseWrites:
    """The sabotage: a run that writes into what it shares must raise."""

    def test_a_writing_tenant_raises_and_leaks_nothing(self):
        params = DataplaneParams(
            tenants=4, distinct_apps=1, n_pes=3, duration=6.0, chaos_every=0
        )
        memo.cache_clear()
        reference = run_tenant(TenantTask(params, 1))

        platform = build_tenant_platform(params, 0, True)
        graph = platform.deployment.descriptor.graph

        def vandal() -> None:
            graph.components["pe00"] = Component("pe00", ComponentKind.SINK)

        platform.env.schedule_at(1.0, vandal)
        with pytest.raises(TypeError):
            platform.run()
        assert run_tenant(TenantTask(params, 1)) == reference

    def test_every_shared_table_is_read_only(self):
        app = tenant_app(DataplaneParams(), 0)
        deployment = app.deployment
        descriptor = deployment.descriptor
        graph = descriptor.graph
        table = descriptor.rate_table
        with pytest.raises(TypeError):
            graph.components["ghost"] = Component("ghost", ComponentKind.PE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            app.low_rate = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            deployment.hosts[0].cores = 99
        assert isinstance(graph.components, MappingProxyType)
        for shared in (
            graph.edges,
            graph.pes,
            graph.sources,
            graph.sinks,
            graph.pred("pe01"),
            graph.succ("pe01"),
            graph.pe_input_edges("pe01"),
            deployment.hosts,
            deployment.host_names,
            deployment.replicas,
            deployment.replicas_of("pe01"),
            deployment.replicas_on("h00"),
            table.rates_of("src"),
        ):
            assert type(shared) is tuple
