"""The data planes' faults are chaos injections, recorded in the stream.

Every fault a fleet or elastic tenant suffers is an
:class:`~repro.chaos.injectors.Injection` applied with
:func:`~repro.chaos.injectors.apply_injection`, so each chaos tenant's
event stream opens with exactly one ``chaos.inject`` record and the
host events it scheduled follow it.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import Injection
from repro.elastic import ElasticParams, ElasticTask, run_elastic_tenant
from repro.fleet.dataplane import DataplaneParams, TenantTask, run_tenant

DURATION = 10.0
DOWNTIME = 3.0

#: Tenant slot -> its injection at ``chaos_every=4``: slot 0 crashes
#: ``h00`` and slot 2 slows ``h01`` at 0.35 of the run; in the elastic
#: run, rebalancer slot 1 is struck half a dual-window into its move.
FLEET = {
    0: Injection.build("rack_crash", 3.5, hosts=("h00",), downtime=DOWNTIME),
    2: Injection.build(
        "slow_host", 3.5, host="h01", factor=0.5, duration=DOWNTIME
    ),
}
ELASTIC = {
    **FLEET,
    1: Injection.build("migration_strike", 5.5, downtime=DOWNTIME),
}

#: What each kind does to a host at ``at`` and undoes ``DOWNTIME`` later.
FAULTS = {
    "rack_crash": ("host.crash", "host.recover"),
    "migration_strike": ("host.crash", "host.recover"),
    "slow_host": ("host.degrade", "host.restore"),
}

RUNS = {
    "fleet": (
        run_tenant,
        TenantTask,
        DataplaneParams(tenants=4, duration=DURATION, chaos_every=4,
                        chaos_downtime=DOWNTIME, keep_events=True),
        FLEET,
    ),
    "elastic": (
        run_elastic_tenant,
        ElasticTask,
        ElasticParams(tenants=4, duration=DURATION, chaos_every=4,
                      chaos_downtime=DOWNTIME, keep_events=True),
        ELASTIC,
    ),
}


@pytest.mark.parametrize("batching", [False, True], ids=["tuple", "batched"])
@pytest.mark.parametrize("plane", sorted(RUNS))
def test_each_chaos_tenant_records_its_one_injection(plane, batching):
    run, task_type, params, expected = RUNS[plane]
    for tenant in range(params.tenants):
        digest = run(task_type(params, tenant, batching))
        records = [json.loads(line) for line in digest["jsonl"].splitlines()]
        injected = [r for r in records if r["type"] == "chaos.inject"]
        if tenant not in expected:
            assert injected == [], f"tenant {tenant} is not a chaos tenant"
            continue
        assert len(injected) == 1, f"tenant {tenant}"
        header = injected[0]
        fields = {
            key: value
            for key, value in header.items()
            if key not in ("seq", "t", "type", "kind", "at")
        }
        injection = expected[tenant]
        assert {
            "kind": header["kind"],
            "at": header["at"],
            "params": fields,
        } == injection.to_dict()

        # The fault lands at `at` and is undone DOWNTIME later, on the
        # same host, both after the header.
        start, end = FAULTS[injection.kind]
        fault = next(r for r in records if r["type"] == start)
        assert fault["t"] == injection.at
        assert fault["seq"] > header["seq"]
        undo = next(
            r
            for r in records
            if r["type"] == end and r["host"] == fault["host"]
        )
        assert undo["t"] == pytest.approx(injection.at + DOWNTIME)
        assert undo["seq"] > fault["seq"]
        assert digest["violations"] == []
