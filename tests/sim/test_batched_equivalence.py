"""Byte-identity matrix: batched engine vs tuple-granular execution.

The batched engine's contract is that flipping
``PlatformConfig.batching`` changes wall-clock time and nothing else:
event logs, metrics, and chaos digests must be byte-identical. This
module pins that contract across every entry point that exposes the
flag — the fleet data plane, seeded chaos campaigns, and observed
runs — and proves the comparison has teeth with a seeded-divergence
mutation that must make the hashes differ.

The per-tenant digests compared here include the SHA-256 of the
canonical event stream, so "equal digests" means byte-identical logs.
Only the ``"engine"`` key (the batched engine's own counters) may
legitimately differ between modes; it is stripped before comparing.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.chaos import (
    PAPER_MODES,
    CampaignSpec,
    paper_campaigns,
    run_campaign,
)
from repro.core.optimizer import OptimizationProblem, ft_search
from repro.dsps.batched import BatchEngine, FallbackTracker
from repro.dsps.platform import StreamPlatform
from repro.fleet.dataplane import (
    DataplaneParams,
    TenantTask,
    run_tenant,
    summarize_dataplane,
    tenant_platform,
)
from repro.workloads import (
    ClusterParams,
    GeneratorParams,
    generate_application,
    save_bundle,
)
from tests.sim.test_generated_equivalence import Control, Scenario, run

CHAOS_SEEDS = range(5)

#: Small fleet slice: chaos_every=4 puts host-crash injections on tenants
#: 0, 4, 8 and slow-host windows on tenants 2, 6, 10, so the matrix
#: exercises the fallback path and the pure closed-form path together.
FLEET = DataplaneParams(tenants=12, chaos_every=4, duration=30.0)


def _sink_buffers_time_sorted(platform: StreamPlatform) -> bool:
    return all(
        all(a <= b for a, b in zip(times, times[1:]))
        for times, _latencies in (
            recorder.sample_buffer()
            for recorder in platform.metrics.sink_latency.values()
        )
    )


@pytest.fixture(scope="module", autouse=True)
def sink_buffer_order() -> list[bool]:
    """Whether each platform run of this corpus ended with every sink's
    arrival-time column non-decreasing, in run order.

    The SLO engine cuts a window from each sink's columns with
    ``bisect_left`` on that column, so the order is a precondition of
    its rollups; the last test of the module reads this record.
    """
    record: list[bool] = []
    run = StreamPlatform.run

    def checked_run(self, *args, **kwargs):
        metrics = run(self, *args, **kwargs)
        record.append(_sink_buffers_time_sorted(self))
        return metrics

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamPlatform, "run", checked_run)
        yield record


def _without_engine(digest: dict) -> dict:
    return {k: v for k, v in digest.items() if k != "engine"}


def _fleet_digests(params: DataplaneParams, batching: bool) -> list[dict]:
    return [
        run_tenant(TenantTask(params, tenant, batching=batching))
        for tenant in range(params.tenants)
    ]


@pytest.fixture(scope="module")
def fleet_pair() -> tuple[list[dict], list[dict]]:
    return (
        _fleet_digests(FLEET, batching=False),
        _fleet_digests(FLEET, batching=True),
    )


class TestFleetDataplane:
    def test_digests_identical_modulo_engine(self, fleet_pair):
        tuple_mode, batched = fleet_pair
        for t_digest, b_digest in zip(tuple_mode, batched):
            t_clean = _without_engine(dict(t_digest, batching=None))
            b_clean = _without_engine(dict(b_digest, batching=None))
            assert t_clean == b_clean, t_digest["tenant"]

    def test_fleet_sha_identical(self, fleet_pair):
        tuple_mode, batched = fleet_pair
        t_summary = summarize_dataplane(tuple_mode)
        b_summary = summarize_dataplane(batched)
        assert t_summary["fleet_sha256"] == b_summary["fleet_sha256"]
        assert t_summary["ok"] and b_summary["ok"]

    def test_chaos_tenants_fall_back(self, fleet_pair):
        _, batched = fleet_pair
        chaotic = [d for d in batched if d["fallback_windows"]]
        assert chaotic, "chaos_every=4 must open fallback windows"
        micro = sum(d["engine"]["micro_events"] for d in chaotic)
        assert micro > 0, "fallback windows must run tuple-granular"

    def test_quiet_tenant_runs_closed_form(self, fleet_pair):
        _, batched = fleet_pair
        quiet = next(d for d in batched if not d["fallback_windows"])
        engine = quiet["engine"]
        assert engine["micro_events"] == 0
        assert engine["runs"] > 0, "trains must engage"
        assert engine["cascades"] > engine["runs"], (
            "runs must commit multi-cascade trains"
        )

    def test_slo_rollups_present_and_identical(self, fleet_pair):
        # The digests compared above include the slo.* event stream
        # (events_sha256 covers it) and the summary dict; make the SLO
        # coverage explicit so a regression reads as an SLO failure.
        tuple_mode, batched = fleet_pair
        for t_digest, b_digest in zip(tuple_mode, batched):
            assert t_digest["log_complete"] is True
            slo = t_digest["slo"]
            assert slo["n_windows"] > 0
            assert json.dumps(slo, sort_keys=True) == json.dumps(
                b_digest["slo"], sort_keys=True
            )

    def test_worker_count_does_not_change_slo_streams(self, fleet_pair):
        from repro.driver import run_tenants as run_fleet_dataplane

        _, batched = fleet_pair
        summary, digests = run_fleet_dataplane(
            dataclasses.replace(FLEET, batching=True), jobs=4
        )
        expected = summarize_dataplane(batched)["fleet_sha256"]
        assert summary["fleet_sha256"] == expected
        assert json.dumps(digests, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )


class TestSeededDivergence:
    """Prove the comparison can fail: a mutated engine must be caught."""

    def test_suppressed_fallback_diverges(self, monkeypatch):
        params = DataplaneParams(tenants=1, chaos_every=1, duration=30.0)
        honest = run_tenant(TenantTask(params, 0, batching=True))
        assert honest["fallback_windows"] > 0

        monkeypatch.setattr(
            FallbackTracker, "on_control", lambda self, reason: None
        )
        mutated = run_tenant(TenantTask(params, 0, batching=True))
        assert mutated["events_sha256"] != honest["events_sha256"], (
            "suppressing fallback windows must change the event stream"
        )

    def test_purging_past_a_pending_arrival_diverges(self, monkeypatch):
        # Arrivals every 1/4 s, 1/2 s of service: the host crash at 0.3
        # cancels a completion due at 0.75, and the run ends at 0.4 —
        # before the arrival due at 0.5, which a tuple-granular heap
        # holds in front of the cancelled event, so it stays uncounted.
        scenario = Scenario(
            delays=(0.5,),
            selectivities=(1.0,),
            n_hosts=2,
            low=4.0,
            high=8.0,
            duration=4.0,
            high_position=1.0,
            jitter=0.0,
            controls=(Control(time=0.3, kind="crash_host", a=0, b=0),),
            ticks=(),
            until=0.4,
        )
        expected, _ = run(scenario, batching=False)
        assert expected["events"][1] == 0
        honest, _ = run(scenario, batching=True)
        assert honest == expected

        advance = BatchEngine.advance

        def purge_whenever_cancelled(self, until):
            advance(self, until)
            self._env._purge_cancelled()

        monkeypatch.setattr(BatchEngine, "advance", purge_whenever_cancelled)
        mutated, _ = run(scenario, batching=True)
        assert mutated["events"][1] == 1
        assert mutated["jsonl"] != expected["jsonl"], (
            "sim.run.end carries the cancelled-event count"
        )


@pytest.fixture(scope="module")
def proven_paths(tmp_path_factory) -> tuple[str, str]:
    directory: Path = tmp_path_factory.mktemp("batched-equivalence")
    app = generate_application(
        7,
        GeneratorParams(n_pes=4, low_rate_range=(2.0, 6.0)),
        ClusterParams(n_hosts=3, cores_per_host=4),
    )
    save_bundle(app, directory / "bundle.json")
    result = ft_search(OptimizationProblem(app.deployment, ic_target=0.5))
    assert result.found_solution
    result.strategy.to_json(directory / "strategy.json")
    return str(directory / "bundle.json"), str(directory / "strategy.json")


class TestChaosCampaigns:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_campaign_digest_identical(self, proven_paths, seed):
        bundle, strategy = proven_paths
        digests = []
        for batching in (False, True):
            spec = CampaignSpec(
                bundle=bundle,
                strategy=strategy,
                seed=seed,
                duration=40.0,
                n_injections=3,
                heartbeat_interval=0.5 if seed % 2 else None,
                batching=batching,
            )
            digests.append(run_campaign(spec))
        assert json.dumps(digests[0], sort_keys=True) == json.dumps(
            digests[1], sort_keys=True
        )


class TestObservedRuns:
    """The paper's three failure modes, as ``repro obs`` runs them."""

    @pytest.mark.parametrize("mode", PAPER_MODES)
    def test_observed_digest_identical(self, proven_paths, mode):
        bundle, strategy = proven_paths
        digests = []
        for batching in (False, True):
            base = CampaignSpec(
                bundle=bundle,
                strategy=strategy,
                seed=0,
                duration=30.0,
                batching=batching,
            )
            (spec,) = paper_campaigns(base, [mode])
            digests.append(run_campaign(spec))
        assert json.dumps(digests[0], sort_keys=True) == json.dumps(
            digests[1], sort_keys=True
        )
        assert digests[0]["slo"]["n_windows"] > 0
        assert digests[0]["log_complete"] is True
        assert digests[0]["invariants"]["ok"]


def _elastic_params():
    """Migration-heavy slice: every tenant autoscales around its
    diurnal peak, tenant 0/4 consolidate a host at night, tenant 1/5
    run a live rebalance move, and tenant 1's migration_strike lands
    inside its open migration window (the chaos-mid-migration path)."""
    from repro.elastic import ElasticParams

    return ElasticParams(tenants=8, chaos_every=4, duration=12.0)


def _elastic_digests(batching: bool) -> list[dict]:
    from repro.elastic import ElasticTask, run_elastic_tenant

    params = _elastic_params()
    return [
        run_elastic_tenant(ElasticTask(params, tenant, batching=batching))
        for tenant in range(params.tenants)
    ]


@pytest.fixture(scope="module")
def elastic_pair() -> tuple[list[dict], list[dict]]:
    return (_elastic_digests(False), _elastic_digests(True))


class TestElasticDataplane:
    """The byte-identity contract holds across live migrations."""

    def test_digests_identical_modulo_engine(self, elastic_pair):
        tuple_mode, batched = elastic_pair
        for t_digest, b_digest in zip(tuple_mode, batched):
            t_clean = _without_engine(dict(t_digest, batching=None))
            b_clean = _without_engine(dict(b_digest, batching=None))
            assert t_clean == b_clean, t_digest["tenant"]

    def test_fleet_sha_identical_and_clean(self, elastic_pair):
        from repro.elastic import summarize_elastic

        tuple_mode, batched = elastic_pair
        t_summary = summarize_elastic(tuple_mode)
        b_summary = summarize_elastic(batched)
        assert t_summary["fleet_sha256"] == b_summary["fleet_sha256"]
        assert t_summary["ok"] and b_summary["ok"]
        assert t_summary["elastic"]["migrations"] > 0
        assert t_summary["elastic"]["aborted"] > 0, (
            "the chaos-mid-migration slot must abort at least one"
            " migration"
        )

    def test_worker_count_does_not_change_elastic_streams(
        self, elastic_pair
    ):
        from repro.elastic import summarize_elastic
        from repro.driver import run_tenants as run_elastic_fleet

        _, batched = elastic_pair
        summary, digests = run_elastic_fleet(
            dataclasses.replace(_elastic_params(), batching=True), jobs=4
        )
        expected = summarize_elastic(batched)["fleet_sha256"]
        assert summary["fleet_sha256"] == expected
        assert json.dumps(digests, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )


class TestSinkBuffers:
    """Last in the module: every run above has been recorded."""

    def test_every_sink_buffer_is_time_sorted(
        self, sink_buffer_order, fleet_pair, elastic_pair
    ):
        assert len(sink_buffer_order) >= 2 * (
            FLEET.tenants + _elastic_params().tenants
        )
        assert all(sink_buffer_order)

    def test_an_unsorted_buffer_is_caught(self):
        platform = tenant_platform(TenantTask(FLEET, 1))
        platform.run()
        assert _sink_buffers_time_sorted(platform)
        times, _ = platform.metrics.sink_latency["sink"].sample_buffer()
        times[0], times[-1] = times[-1], times[0]
        assert not _sink_buffers_time_sorted(platform)
