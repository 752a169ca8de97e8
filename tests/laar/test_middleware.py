"""End-to-end tests of the LAAR extended application (the Fig. 3 scenario)."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    Host,
    OptimizationProblem,
    ft_search,
    static_replication,
)
from repro.dsps import two_level_trace
from repro.errors import SimulationError
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement

GIGA = 1.0e9


@pytest.fixture
def fig3_setup(pipeline_descriptor):
    """The Sec. 4.1 deployment: two hosts of 1e9 cycles/s each, so the
    High configuration (1.6e9 per host, fully replicated) overloads."""
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    deployment = balanced_placement(pipeline_descriptor, hosts, 2)
    result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
    assert result.strategy is not None
    trace = {"src": two_level_trace(4.0, 8.0, duration=90.0)}
    return deployment, result.strategy, trace


class TestConfigValidation:
    def test_bad_monitor_interval(self):
        with pytest.raises(SimulationError):
            MiddlewareConfig(monitor_interval=0.0)

    def test_bad_command_latency(self):
        with pytest.raises(SimulationError):
            MiddlewareConfig(command_latency=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["monitor_interval", "command_latency", "rate_tolerance"]
    )
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(SimulationError, match=field):
            MiddlewareConfig(**{field: value})


class TestStaticVariant:
    def test_static_app_has_no_monitor(self, fig3_setup):
        deployment, strategy, trace = fig3_setup
        app = ExtendedApplication(
            deployment,
            static_replication(deployment),
            trace,
            middleware_config=MiddlewareConfig(dynamic=False),
        )
        assert app.monitor is None

    def test_static_replication_saturates_during_peak(self, fig3_setup):
        """Fig. 3a: with static replication the CPUs saturate in High and
        the output rate falls behind the input rate."""
        deployment, _, trace = fig3_setup
        app = ExtendedApplication(
            deployment,
            static_replication(deployment),
            trace,
            middleware_config=MiddlewareConfig(dynamic=False),
        )
        metrics = app.run()
        # Host capacity caps throughput at 1e9 / 1.6e9 = 62.5% of High.
        peak_output = metrics.output_rate_in_window(35.0, 58.0)
        assert peak_output == pytest.approx(5.0, rel=0.15)
        assert metrics.logical_dropped > 0


class TestDynamicVariant:
    def test_laar_follows_the_input_rate(self, fig3_setup):
        """Fig. 3b: deactivating replicas during High lets the output
        follow the input."""
        deployment, strategy, trace = fig3_setup
        app = ExtendedApplication(deployment, strategy, trace)
        metrics = app.run()
        peak_output = metrics.output_rate_in_window(35.0, 58.0)
        assert peak_output == pytest.approx(8.0, rel=0.1)
        assert metrics.total_output >= 0.97 * metrics.total_input

    def test_laar_switches_and_switches_back(self, fig3_setup):
        deployment, strategy, trace = fig3_setup
        app = ExtendedApplication(deployment, strategy, trace)
        metrics = app.run()
        configs = [config for _, config in metrics.config_switches]
        assert configs == [1, 0]  # into High, back to Low

    def test_laar_uses_less_cpu_than_static(self, fig3_setup):
        deployment, strategy, trace = fig3_setup
        static_metrics = ExtendedApplication(
            deployment,
            static_replication(deployment),
            trace,
            middleware_config=MiddlewareConfig(dynamic=False),
        ).run()
        laar_metrics = ExtendedApplication(deployment, strategy, trace).run()
        assert laar_metrics.total_cpu_time < static_metrics.total_cpu_time

    def test_initial_configuration_matches_trace_start(self, fig3_setup):
        deployment, strategy, trace = fig3_setup
        app = ExtendedApplication(deployment, strategy, trace)
        assert app.controller.current_config == 0  # trace starts Low

    def test_initial_configuration_for_high_start(
        self, fig3_setup
    ):
        deployment, strategy, _ = fig3_setup
        trace = {
            "src": two_level_trace(
                4.0, 8.0, duration=60.0, high_position=0.0
            )
        }
        app = ExtendedApplication(deployment, strategy, trace)
        assert app.controller.current_config == 1
