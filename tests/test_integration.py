"""End-to-end integration: the paper's guarantee, validated on random apps.

The central claim of the paper is that the IC value computed under the
pessimistic failure model is a *lower bound* on the completeness observed
on the actual deployment in the worst case. These tests close the loop:
generate an application, run FT-Search, deploy on the simulator, inject
the worst case, and compare measured against promised — plus the
heterogeneous-host case the experiments never exercise.
"""

from __future__ import annotations

import pytest

from repro.chaos import Injection, apply_injection
from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    OptimizationProblem,
    ft_search,
    non_replicated,
)
from repro.dsps import PlatformConfig, two_level_trace
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement
from repro.workloads import ClusterParams, GeneratorParams, generate_application

GIGA = 1.0e9
# Configuration-switch lag (monitor window + down-confirmation, ~6 s per
# burst) keeps the High activation alive briefly during Low, costing a
# bounded, trace-length-amortised slice of worst-case completeness; the
# paper observes the same effect as rare violations of up to ~4.7 % on
# 300 s traces. See EXPERIMENTS.md "known residual deviations".
TRANSITION_SLACK = 0.90


def run_worst_case(app, strategy, duration=150.0):
    trace = two_level_trace(
        app.low_rate, app.high_rate, duration=duration, high_fraction=1 / 3
    )
    middleware = MiddlewareConfig(
        monitor_interval=2.0, rate_tolerance=0.25, down_confirmation=2
    )
    platform_config = PlatformConfig(arrival_jitter=0.3, seed=app.seed)

    reference = ExtendedApplication(
        app.deployment,
        non_replicated(strategy, 1),
        {"src": trace},
        platform_config=platform_config,
        middleware_config=MiddlewareConfig(dynamic=False),
    ).run()

    failed_app = ExtendedApplication(
        app.deployment,
        strategy,
        {"src": trace},
        platform_config=platform_config,
        middleware_config=middleware,
    )
    apply_injection(
        failed_app.platform,
        Injection.build("pessimistic", at=0.0),
        strategy=strategy,
    )
    failed = failed_app.run()
    return failed.tuples_processed / max(1, reference.tuples_processed)


class TestGuaranteeEndToEnd:
    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("target", [0.4, 0.55])
    def test_measured_ic_honours_the_bound(self, seed, target):
        app = generate_application(
            seed,
            params=GeneratorParams(n_pes=10),
            cluster=ClusterParams(n_hosts=3, cores_per_host=8),
        )
        result = ft_search(
            OptimizationProblem(app.deployment, ic_target=target),
        )
        assert result.strategy is not None, "corpus app must be feasible"
        measured = run_worst_case(app, result.strategy)
        assert measured >= result.best_ic * TRANSITION_SLACK, (
            f"seed {seed}: measured {measured:.3f} <"
            f" promised {result.best_ic:.3f}"
        )


class TestCostModelAgreement:
    def test_simulated_cpu_matches_cost_model_for_laar(self):
        """The Eq. 13 cost of a LAAR strategy predicts the simulator's
        measured CPU time (best case), validating that Fig. 9's model
        cost / measured CPU equivalence holds beyond all-active."""
        from repro.core import host_load_table

        app = generate_application(
            45,
            params=GeneratorParams(n_pes=10),
            cluster=ClusterParams(n_hosts=3, cores_per_host=8),
        )
        result = ft_search(OptimizationProblem(app.deployment, ic_target=0.5))
        assert result.strategy is not None
        duration = 90.0
        trace = two_level_trace(
            app.low_rate, app.high_rate, duration=duration,
            high_fraction=1 / 3,
        )
        metrics = ExtendedApplication(
            app.deployment,
            result.strategy,
            {"src": trace},
            middleware_config=MiddlewareConfig(
                monitor_interval=2.0, rate_tolerance=0.25,
                down_confirmation=2,
            ),
        ).run()

        # Expected CPU time: per configuration, the host loads of the
        # strategy, weighted by the configuration's share of the trace.
        loads = host_load_table(result.strategy)
        durations = {0: duration * 2 / 3, 1: duration / 3}
        expected = 0.0
        for (host, c), load in loads.items():
            cycles_per_core = app.deployment.host(host).cycles_per_core
            expected += load * durations[c] / cycles_per_core
        assert metrics.total_cpu_time == pytest.approx(expected, rel=0.1)


class TestHeterogeneousHosts:
    @pytest.fixture
    def heterogeneous_setup(self):
        """A big host and two small ones — capacities differ by 2x."""
        graph = ApplicationGraph.build(
            ["src"], ["a", "b", "c"], ["sink"],
            [("src", "a"), ("a", "b"), ("b", "c"), ("c", "sink")],
        )
        space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.7)
        profiles = {
            ("src", "a"): EdgeProfile(1.0, 0.05 * GIGA),
            ("a", "b"): EdgeProfile(1.0, 0.06 * GIGA),
            ("b", "c"): EdgeProfile(1.0, 0.04 * GIGA),
        }
        descriptor = ApplicationDescriptor(graph, profiles, space, "hetero")
        hosts = [
            Host("big", cores=3, cycles_per_core=0.4 * GIGA),
            Host("small0", cores=2, cycles_per_core=0.2 * GIGA),
            Host("small1", cores=2, cycles_per_core=0.2 * GIGA),
        ]
        return descriptor, balanced_placement(descriptor, hosts, 2)

    def test_search_respects_individual_capacities(
        self, heterogeneous_setup
    ):
        descriptor, deployment = heterogeneous_setup
        result = ft_search(OptimizationProblem(deployment, ic_target=0.3))
        assert result.strategy is not None
        from repro.core import cpu_constraint_violations

        assert cpu_constraint_violations(result.strategy) == []

    def test_simulation_respects_individual_capacities(
        self, heterogeneous_setup
    ):
        descriptor, deployment = heterogeneous_setup
        result = ft_search(OptimizationProblem(deployment, ic_target=0.3))
        trace = {"src": two_level_trace(4.0, 8.0, duration=45.0)}
        metrics = ExtendedApplication(
            deployment, result.strategy, trace
        ).run()
        # The strategy keeps even the small hosts un-overloaded: the
        # output keeps up with the input.
        assert metrics.total_output >= 0.9 * metrics.total_input
