"""A finished run is freed by reference counting.

A platform is one web of back-references: the data path's bound-method
hooks, the replica groups and their members, the event log's SLO tap,
the pending heap. :func:`run_tenant` and :func:`run_elastic_tenant`
close the platform once the digest is built, and
:meth:`ExtendedApplication.run` closes it as the LAAR run ends (so every
:class:`CampaignRun` does too). Each owner drops the links it holds and
the hooks back to the platform are cut, so nothing of the run is left
for the cycle collector. So is a generated application: its memoised
rate table keeps the graph, not the descriptor that memoises it. Each
test runs once with ``gc`` disabled and then asks the collector how
many unreachable objects it finds: zero. The sabotages prove the count
can fail.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import random
from typing import Any, Callable, Optional, Union

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import (
    CampaignSpec,
    generate_schedule,
    paper_schedule,
)
from repro.chaos.injectors import apply_injection
from repro.chaos.runner import CampaignRun
from repro.core.baselines import greedy_deactivation
from repro.core.optimizer import ft_search
from repro.core.optimizer.problem import OptimizationProblem
from repro.core.rates import RateTable
from repro.core.strategy import ActivationStrategy
from repro.dsps.operators import ReplicaGroup
from repro.dsps.platform import PlatformConfig, StreamPlatform
from repro.dsps.traces import two_level_trace
from repro.elastic import ElasticParams, ElasticTask, run_elastic_tenant
from repro.errors import SimulationError
from repro.experiments.cluster import ARRIVAL_JITTER, HEARTBEAT_INTERVAL
from repro.fleet.dataplane import (
    DataplaneParams,
    TenantTask,
    run_tenant,
    tenant_platform,
)
from repro.laar.middleware import PAPER_MIDDLEWARE, ExtendedApplication
from repro.obs.slo import FloorAvailability, attach_slo
from repro.workloads import GeneratorParams, generate_application

#: chaos_every=4: tenant 0 is a crash slot, tenant 2 a degrade slot,
#: tenant 1 neither.
PARAMS = DataplaneParams(tenants=4, chaos_every=4, duration=12.0)
ELASTIC = ElasticParams(tenants=4, chaos_every=4, duration=12.0)


def cyclic_garbage(run_one: Callable[[Any], Any], task: Any) -> int:
    """Objects the cycle collector finds after one ``run_one(task)``.

    It runs once first, so the per-process application memo is warm
    and what is counted is the run alone.
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


# ----------------------------------------------------------------------
# The LAAR run: ExtendedApplication.run closes its platform
# ----------------------------------------------------------------------

#: The grid's app-2021 reaches its L.5 cost at this node of its 4 M-node
#: search (``SearchResult.best_solution_nodes``). The search reads no
#: clock, so a budget of exactly this many nodes (7.7 % of the grid's)
#: returns a strategy of the same cost and IC; it differs from the
#: grid's only in which replica of two PEs stays active at Low (an
#: equal-cost tie the full search resolves by visit rank). The small
#: drawn applications finish their search well inside it.
L5_NODES = 309_345
TRACE_SECONDS = 30.0
DRAIN = 2.0


@dataclasses.dataclass(frozen=True)
class LaarTask:
    """One drawn run of the paper's loop. ``pes=None`` is the grid's
    paper-scale generator; ``chaos`` is a paper failure mode or the seed
    of a generated injection schedule. With ``drain=0`` the run ends
    mid-traffic, with jobs in flight on its hosts."""

    app_seed: int
    pes: Optional[int]
    jitter: float
    chaos: Union[str, int]
    heartbeats: bool = True
    batching: bool = False
    dynamic: bool = True
    drain: float = DRAIN


#: A small application under a generated three-injection schedule,
#: ending mid-traffic.
SMALL = LaarTask(
    app_seed=3, pes=8, jitter=ARRIVAL_JITTER, chaos=11, drain=0.0
)
#: The grid's app-2021, L.5 under the worst case: 1 513 objects a run
#: were left for the collector before its platform was closed.
APP_2021_WORST = LaarTask(
    app_seed=2021, pes=None, jitter=ARRIVAL_JITTER, chaos="worst"
)


@functools.lru_cache(maxsize=None)
def _l5(app_seed: int, pes: Optional[int]) -> tuple[Any, ActivationStrategy]:
    """A generated application and its L.5 strategy, or GRD where no
    strategy reaches IC 0.5 on the application's cores."""
    params = GeneratorParams() if pes is None else GeneratorParams(n_pes=pes)
    app = generate_application(app_seed, params=params, name=f"app-{app_seed}")
    result = ft_search(
        OptimizationProblem(app.deployment, ic_target=0.5),
        node_limit=L5_NODES,
        seed_incumbent=True,
    )
    return app, result.strategy or greedy_deactivation(app.deployment)


def _deploy(task: LaarTask) -> tuple[Any, ActivationStrategy, dict, tuple]:
    """The application, its strategy, the traces and the schedule."""
    app, strategy = _l5(task.app_seed, task.pes)
    trace = two_level_trace(app.low_rate, app.high_rate, TRACE_SECONDS)
    deployment = app.deployment
    if isinstance(task.chaos, str):
        schedule = paper_schedule(
            task.chaos, deployment, trace, random.Random(task.app_seed)
        )
    else:
        spec = CampaignSpec(
            bundle="-", strategy="-", seed=task.chaos, duration=TRACE_SECONDS
        )
        schedule = generate_schedule(spec, deployment, trace)
    traces = {source: trace for source in deployment.descriptor.graph.sources}
    return app, strategy, traces, schedule


def _configs(task: LaarTask) -> dict[str, Any]:
    return dict(
        platform_config=PlatformConfig(
            arrival_jitter=task.jitter,
            heartbeat_interval=HEARTBEAT_INTERVAL if task.heartbeats else None,
            seed=task.app_seed,
            batching=task.batching,
        ),
        middleware_config=dataclasses.replace(
            PAPER_MIDDLEWARE, dynamic=task.dynamic
        ),
    )


def run_campaign_run(task: LaarTask) -> dict[str, Any]:
    """One :class:`CampaignRun`, as the grid, Fig. 3 and ``obs`` run it."""
    app, strategy, traces, schedule = _deploy(task)
    _, digest = CampaignRun(
        app.deployment, strategy, traces, schedule, **_configs(task)
    ).run(task.drain)
    return digest


def platform_reads(platform: StreamPlatform) -> dict[str, Any]:
    """What the frozen e2e harness and :meth:`CampaignRun.run` read from
    a platform after its run."""
    events = platform.telemetry.events
    return {
        "queued": {
            str(replica_id): platform.replica(replica_id).queue_length
            for replica_id in platform.metrics.replicas
        },
        "conservation": platform.conservation(),
        "fallback": (platform.fallback.windows, platform.fallback.covered),
        "sim_events": platform.env.events_processed,
        "events": (events.emitted, events.evicted, events.to_jsonl()),
        "fallbacks": events.count("config.fallback"),
        "spans": platform.telemetry.spans.to_list(),
    }


def deploy_golden_shaped(task: LaarTask) -> tuple[ExtendedApplication, Any]:
    """golden_path's deploy step as the e2e harness spells it: the
    extended application, its SLO tap and the injections."""
    app, strategy, traces, schedule = _deploy(task)
    extended = ExtendedApplication(
        app.deployment, strategy, traces, **_configs(task)
    )
    platform = extended.platform
    slo = attach_slo(
        platform,
        FloorAvailability(
            app.deployment,
            strategy,
            strategy,
            extended.initial_config,
            command_latency=PAPER_MIDDLEWARE.command_latency,
        ),
        tenant="golden",
    )
    for injection in schedule:
        apply_injection(platform, injection, strategy=strategy)
    return extended, slo


def run_golden_shaped(task: LaarTask) -> dict[str, Any]:
    """golden_path's data path: deploy, run, finalize the SLO engine,
    then the harness's reads."""
    extended, slo = deploy_golden_shaped(task)
    metrics = extended.run(drain=task.drain)
    slo.finalize(TRACE_SECONDS + task.drain)
    return {
        **platform_reads(extended.platform),
        "metrics": (metrics.total_input, metrics.tuples_processed),
        "slo": slo.summary(),
    }


class TestLaarRelease:
    def test_a_golden_path_tenant_leaves_no_cycles(self):
        assert cyclic_garbage(run_golden_shaped, SMALL) == 0

    @pytest.mark.parametrize("hook", ["_emit", "on_primary_change"])
    def test_a_close_that_keeps_a_hook_leaves_cycles(self, monkeypatch, hook):
        assert cyclic_garbage(run_campaign_run, SMALL) == 0
        honest = StreamPlatform.close

        def close_keeping_hook(self: StreamPlatform) -> None:
            replicas = list(self._replicas.values())
            groups = list(self._groups.values())
            honest(self)
            if hook == "_emit":
                replicas[0]._emit = self._forward_output
            else:
                groups[0].on_primary_change = self._bump_epoch

        monkeypatch.setattr(StreamPlatform, "close", close_keeping_hook)
        assert cyclic_garbage(run_campaign_run, SMALL) > 0


class TestPostRunContract:
    """After :meth:`ExtendedApplication.run` closed the platform, every
    read of the harness and the campaign runner returns what it did on
    the open platform."""

    def test_reads_equal_those_taken_before_close(self, monkeypatch):
        before: list[dict[str, Any]] = []
        honest = StreamPlatform.close

        def close_after_reading(self: StreamPlatform) -> None:
            before.append(platform_reads(self))
            honest(self)

        monkeypatch.setattr(StreamPlatform, "close", close_after_reading)
        extended, _slo = deploy_golden_shaped(SMALL)
        extended.run(drain=SMALL.drain)
        assert before == [platform_reads(extended.platform)]

    def test_reads_equal_those_of_a_run_never_closed(self, monkeypatch):
        closed = run_golden_shaped(SMALL)
        monkeypatch.setattr(StreamPlatform, "close", lambda self: None)
        assert run_golden_shaped(SMALL) == closed

    def test_a_second_run_raises(self):
        extended, _slo = deploy_golden_shaped(SMALL)
        extended.run(drain=SMALL.drain)
        with pytest.raises(SimulationError, match="closed"):
            extended.run(drain=SMALL.drain)


@settings(max_examples=10, deadline=None)
@example(
    app_seed=APP_2021_WORST.app_seed,
    pes=APP_2021_WORST.pes,
    jitter=APP_2021_WORST.jitter,
    chaos=APP_2021_WORST.chaos,
    heartbeats=True,
    batching=False,
    dynamic=True,
    drain=DRAIN,
)
@given(
    app_seed=st.integers(0, 40),
    pes=st.integers(4, 10),
    jitter=st.floats(0.0, 0.5),
    chaos=st.one_of(
        st.sampled_from(("none", "worst", "crash")), st.integers(0, 1 << 16)
    ),
    heartbeats=st.booleans(),
    batching=st.booleans(),
    dynamic=st.booleans(),
    drain=st.sampled_from((0.0, DRAIN)),
)
def test_drawn_campaign_runs_leave_no_cycles(
    app_seed, pes, jitter, chaos, heartbeats, batching, dynamic, drain
):
    task = LaarTask(
        app_seed, pes, jitter, chaos, heartbeats, batching, dynamic, drain
    )
    assert cyclic_garbage(run_campaign_run, task) == 0


# ----------------------------------------------------------------------
# A generated application: its rate table does not point back
# ----------------------------------------------------------------------


def generate_and_read_rates(seed: int) -> None:
    """Generate a small application, read its memoised rate table and
    drop both."""
    app = generate_application(seed, params=GeneratorParams(n_pes=8))
    app.descriptor.rate_table.replica_load_matrix()


class TestApplicationRelease:
    def test_a_generated_application_leaves_no_cycles(self):
        assert cyclic_garbage(generate_and_read_rates, 3) == 0

    def test_a_rate_table_that_keeps_its_descriptor_leaves_cycles(
        self, monkeypatch
    ):
        init = RateTable.__init__

        def keep_descriptor(self: RateTable, descriptor: Any) -> None:
            init(self, descriptor)
            self.kept = descriptor

        monkeypatch.setattr(RateTable, "__init__", keep_descriptor)
        assert cyclic_garbage(generate_and_read_rates, 3) > 0
