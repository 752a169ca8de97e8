"""A finished tenant is freed by reference counting.

A tenant's platform is one web of back-references: the data path's
bound-method hooks, the replica groups and their members, the event
log's SLO tap, the pending heap. :func:`run_tenant` and
:func:`run_elastic_tenant` close the platform once the digest is built,
and each owner drops the links it holds, so nothing of the tenant is
left for the cycle collector. Each test runs its tenant with ``gc``
disabled and then asks the collector how many unreachable objects it
finds: zero. The sabotage proves the count can fail.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Any, Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dsps.operators import ReplicaGroup
from repro.elastic import ElasticParams, ElasticTask, run_elastic_tenant
from repro.errors import SimulationError
from repro.fleet.dataplane import (
    DataplaneParams,
    TenantTask,
    run_tenant,
    tenant_platform,
)

#: chaos_every=4: tenant 0 is a crash slot, tenant 2 a degrade slot,
#: tenant 1 neither.
PARAMS = DataplaneParams(tenants=4, chaos_every=4, duration=12.0)
ELASTIC = ElasticParams(tenants=4, chaos_every=4, duration=12.0)


def cyclic_garbage(run_one: Callable[[Any], Any], task: Any) -> int:
    """Objects the cycle collector finds after one tenant run.

    The tenant runs once first, so the per-process application memo
    is warm and what is counted is the run alone.
    """
    run_one(task)
    gc.collect()
    gc.disable()
    try:
        run_one(task)
        return gc.collect()
    finally:
        gc.enable()


class TestTenantRelease:
    @pytest.mark.parametrize(
        "tenant", [1, 0, 2], ids=["plain", "crash-slot", "degrade-slot"]
    )
    @pytest.mark.parametrize("batching", [True, False])
    def test_run_tenant_leaves_no_cycles(self, tenant, batching):
        task = TenantTask(PARAMS, tenant, batching=batching)
        assert cyclic_garbage(run_tenant, task) == 0

    @pytest.mark.parametrize("tenant", range(4))
    @pytest.mark.parametrize("autoscale", [True, False])
    def test_run_elastic_tenant_leaves_no_cycles(self, tenant, autoscale):
        params = dataclasses.replace(ELASTIC, autoscale=autoscale)
        task = ElasticTask(params, tenant)
        assert cyclic_garbage(run_elastic_tenant, task) == 0

    def test_a_group_that_keeps_its_members_leaves_cycles(
        self, monkeypatch
    ):
        task = TenantTask(PARAMS, 1)
        assert cyclic_garbage(run_tenant, task) == 0

        def close_keeping_members(self: ReplicaGroup) -> None:
            self.primary = None
            self._last_beat = {}

        monkeypatch.setattr(ReplicaGroup, "close", close_keeping_members)
        assert cyclic_garbage(run_tenant, task) > 0


class TestClose:
    def test_a_closed_platform_refuses_to_run(self):
        platform = tenant_platform(TenantTask(PARAMS, 1))
        platform.run()
        platform.close()
        with pytest.raises(SimulationError, match="closed"):
            platform.run()

    def test_close_twice_is_a_no_op(self):
        platform = tenant_platform(TenantTask(PARAMS, 0))
        metrics = platform.run()
        platform.close()
        platform.close()
        assert metrics.total_output > 0
        assert platform.telemetry.events.emitted > 0
        with pytest.raises(SimulationError, match="closed"):
            platform.run()


@settings(max_examples=12, deadline=None)
# Tenant 7 ends its run inside a migration window: the window kept the
# handle of its pending cutover, whose callback led back to the engine.
@example(tenant=7, chaos_every=0, batching=False, slo=False, elastic=True)
@given(
    tenant=st.integers(0, 63),
    chaos_every=st.integers(0, 8),
    batching=st.booleans(),
    slo=st.booleans(),
    elastic=st.booleans(),
)
def test_drawn_tenants_leave_no_cycles(
    tenant, chaos_every, batching, slo, elastic
):
    shape = dict(
        tenants=64,
        chaos_every=chaos_every,
        batching=batching,
        slo=slo,
        duration=12.0,
    )
    if elastic:
        task: Any = ElasticTask(ElasticParams(**shape), tenant)
        run_one: Callable[[Any], Any] = run_elastic_tenant
    else:
        task = TenantTask(DataplaneParams(**shape), tenant)
        run_one = run_tenant
    assert cyclic_garbage(run_one, task) == 0
