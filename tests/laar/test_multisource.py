"""End-to-end LAAR on a two-source application (4 input configurations).

The paper's experiments use a single source, but the model (Sec. 4.2) is
defined over the Cartesian configuration space of any number of sources.
This test drives the whole stack — descriptor, FT-Search, configuration
lookup, Rate Monitor, HAController — with two independently bursting
sources.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    OptimizationProblem,
    ft_search,
    internal_completeness,
)
from repro.dsps import InputTrace, TraceSegment
from repro.laar import ExtendedApplication, MiddlewareConfig
from repro.placement import balanced_placement

GIGA = 1.0e9


@pytest.fixture(scope="module")
def two_source_setup():
    graph = ApplicationGraph.build(
        sources=["sensors", "tickets"],
        pes=["fuse", "analyze"],
        sinks=["out"],
        edges=[
            ("sensors", "fuse"),
            ("tickets", "fuse"),
            ("fuse", "analyze"),
            ("analyze", "out"),
        ],
    )
    space = ConfigurationSpace.from_source_rates(
        {
            "sensors": [(4.0, 0.7), (8.0, 0.3)],
            "tickets": [(2.0, 0.6), (5.0, 0.4)],
        }
    )
    profiles = {
        ("sensors", "fuse"): EdgeProfile(1.0, 0.05 * GIGA),
        ("tickets", "fuse"): EdgeProfile(1.0, 0.05 * GIGA),
        ("fuse", "analyze"): EdgeProfile(1.0, 0.06 * GIGA),
    }
    descriptor = ApplicationDescriptor(graph, profiles, space, "two-source")
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.55 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.55 * GIGA),
    ]
    deployment = balanced_placement(descriptor, hosts, 2)
    result = ft_search(OptimizationProblem(deployment, ic_target=0.5))
    assert result.strategy is not None
    return descriptor, deployment, result


class TestModel:
    def test_configuration_space_is_cartesian(self, two_source_setup):
        descriptor, _, _ = two_source_setup
        space = descriptor.configuration_space
        assert len(space) == 4
        assert sum(c.probability for c in space) == pytest.approx(1.0)

    def test_strategy_meets_target_over_all_configs(self, two_source_setup):
        _, _, result = two_source_setup
        assert internal_completeness(result.strategy) >= 0.5 - 1e-9

    def test_worst_configuration_is_overloaded_when_static(
        self, two_source_setup
    ):
        descriptor, deployment, _ = two_source_setup
        from repro.core import RateTable

        table = RateTable(descriptor)
        # (8, 5): fuse 13 t/s * 0.05e9 * 2 + analyze 13 * 0.06e9... per
        # host with all replicas active exceeds 1.1e9.
        worst = max(range(4), key=lambda c: table.total_pe_input_rate(c))
        assert deployment.is_overloaded(worst)


class TestRuntime:
    def run(self, two_source_setup, sensors_trace, tickets_trace):
        _, deployment, result = two_source_setup
        app = ExtendedApplication(
            deployment,
            result.strategy,
            {"sensors": sensors_trace, "tickets": tickets_trace},
            middleware_config=MiddlewareConfig(
                monitor_interval=2.0, rate_tolerance=0.2
            ),
        )
        return app, app.run()

    def test_independent_bursts_tracked(self, two_source_setup):
        sensors = InputTrace(
            [
                TraceSegment(4.0, 20.0, "Low"),
                TraceSegment(8.0, 20.0, "High"),
                TraceSegment(4.0, 20.0, "Low"),
            ]
        )
        tickets = InputTrace(
            [
                TraceSegment(2.0, 40.0, "Low"),
                TraceSegment(5.0, 20.0, "High"),
            ]
        )
        app, metrics = self.run(two_source_setup, sensors, tickets)
        # The controller visited at least three of the four corners:
        # (L,L) initial, (H,L) during the sensors burst, (L,H) at the end.
        visited = {app.controller.current_config}
        visited.update(config for _, config in metrics.config_switches)
        assert len(visited) >= 3

    def test_output_tracks_input_through_corners(self, two_source_setup):
        sensors = InputTrace(
            [TraceSegment(4.0, 20.0, "Low"), TraceSegment(8.0, 40.0, "High")]
        )
        tickets = InputTrace(
            [TraceSegment(2.0, 40.0, "Low"), TraceSegment(5.0, 20.0, "High")]
        )
        _, metrics = self.run(two_source_setup, sensors, tickets)
        assert metrics.total_output >= 0.93 * metrics.total_input

    def test_monitor_reports_both_sources(self, two_source_setup):
        sensors = InputTrace([TraceSegment(4.0, 10.0, "Low")])
        tickets = InputTrace([TraceSegment(2.0, 10.0, "Low")])
        app, _ = self.run(two_source_setup, sensors, tickets)
        assert app.monitor is not None
        _, rates = app.monitor.measurements[-1]
        assert set(rates) == {"sensors", "tickets"}
