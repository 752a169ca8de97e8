"""Fleet scenario determinism and reporting tests.

The headline contract (ISSUE 3 acceptance): a 100-tenant scenario fanned
through ``repro.experiments.parallel`` produces **byte-identical** event
logs and reports for ``jobs=1`` and ``jobs=4``, and the strategy store
serves every repeat provisioning from cache.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.parallel import FabricProfile
from repro.fleet.report import render_fleet_report
from repro.fleet.scenario import (
    ARRIVAL_SPACING,
    CHECK_SPACING,
    DRIFT_CHECKS,
    FleetScenarioParams,
    run_fleet_scenario,
)
from repro.fleet.store import StrategyStore
from repro.obs.validate import validate_lines


@pytest.fixture(scope="module")
def small_result():
    return run_fleet_scenario(
        FleetScenarioParams(tenants=12, distinct_apps=3), jobs=1
    )


class TestScenario:
    def test_every_tenant_gets_a_decision(self, small_result):
        admission = small_result.report["admission"]
        assert admission["submitted"] == 12
        assert (
            admission["admitted"]
            + admission["rejected_sla"]
            + admission["rejected_capacity"]
        ) == 12

    def test_admissions_after_prewarm_all_hit_the_store(self, small_result):
        events = small_result.events_jsonl.splitlines()
        admits = [
            json.loads(line)
            for line in events
            if json.loads(line)["type"] == "fleet.admit"
        ]
        assert admits
        assert all(record["cache"] for record in admits)
        store = small_result.report["store"]
        assert store["hits"] >= small_result.report["admission"]["submitted"]

    def test_events_validate_against_schema(self, small_result):
        problems = validate_lines(small_result.events_jsonl.splitlines())
        assert problems == []

    def test_events_are_sim_time_stamped(self, small_result):
        params = small_result.params
        times = [
            json.loads(line)["t"]
            for line in small_result.events_jsonl.splitlines()
        ]
        horizon = (
            params.tenants * ARRIVAL_SPACING + DRIFT_CHECKS * CHECK_SPACING
        )
        assert all(0.0 <= t <= horizon for t in times)

    def test_report_renders(self, small_result):
        text = render_fleet_report(small_result.report)
        assert "fleet scenario report" in text
        assert "shared pool occupancy" in text
        assert "strategy store" in text

    def test_drift_produces_replans(self):
        result = run_fleet_scenario(
            FleetScenarioParams(
                tenants=8, distinct_apps=2, drift_every=2
            ),
            jobs=1,
        )
        assert result.report["admission"]["replans_attempted"] >= 1
        assert result.report["events"].get("config.fallback", 0) >= 1

    def test_high_drift_evicts_and_frees_cores(self):
        result = run_fleet_scenario(
            FleetScenarioParams(
                tenants=6,
                distinct_apps=2,
                drift_every=1,
                drift_factor=50.0,
            ),
            jobs=1,
        )
        admission = result.report["admission"]
        assert admission["evicted"] >= 1
        assert admission["active"] == (
            admission["admitted"] - admission["evicted"]
        )
        assert result.report["events"].get("fleet.evict", 0) >= 1

    def test_persistent_store_reused_across_runs(self, tmp_path):
        params = FleetScenarioParams(tenants=6, distinct_apps=2)
        first = run_fleet_scenario(
            params, jobs=1, store=StrategyStore(tmp_path / "store")
        )
        assert first.report["store"]["misses"] >= 0
        searched = first.report["store"]["entries"]
        again = run_fleet_scenario(
            params, jobs=1, store=StrategyStore(tmp_path / "store")
        )
        # Everything — prewarm included — is served from disk.
        assert again.report["store"]["entries"] == searched
        assert again.report["store"]["misses"] == 0


class TestCrossWorkerDeterminism:
    """The ISSUE 3 acceptance scenario: 100 tenants, jobs=1 vs jobs=4."""

    @pytest.fixture(scope="class")
    def hundred(self):
        params = FleetScenarioParams(tenants=100)
        serial = run_fleet_scenario(params, jobs=1)
        profile = FabricProfile(label="fleet-prewarm")
        parallel = run_fleet_scenario(params, jobs=4, profile=profile)
        return serial, parallel, profile

    def test_event_logs_byte_identical(self, hundred):
        serial, parallel, _ = hundred
        assert serial.events_jsonl.encode() == parallel.events_jsonl.encode()

    def test_reports_byte_identical(self, hundred):
        serial, parallel, _ = hundred
        a = json.dumps(serial.report, sort_keys=True).encode()
        b = json.dumps(parallel.report, sort_keys=True).encode()
        assert a == b

    def test_store_contents_identical(self, hundred):
        serial, parallel, _ = hundred
        assert serial.store.items() == parallel.store.items()

    def test_scenario_actually_exercised_the_fleet(self, hundred):
        serial, _, _ = hundred
        admission = serial.report["admission"]
        assert admission["submitted"] == 100
        assert admission["admitted"] >= 25
        assert admission["rejected_sla"] >= 1
        assert admission["rejected_capacity"] >= 1
        assert admission["replans_attempted"] >= 1

    def test_prewarm_ran_through_the_pool(self, hundred):
        _, _, profile = hundred
        summary = profile.summary()
        assert summary["n_tasks"] == 21  # 7 apps x 3 classes
        assert summary["jobs"] == 4
