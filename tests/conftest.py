"""Shared fixtures: the paper's Sec. 4.1 pipeline and richer graph shapes.

Also the suite's Hypothesis profiles: tier-1 is a gate (and a judge in
docs/static-analysis.md's mutation trial), so by default every
generated test draws the same examples on every run; ``explore`` is
the gate's seeded exploratory run, which draws new ones.

Hypothesis also draws literal constants from every local module in
``sys.modules``, so what a generated test draws would depend on which
modules the tests collected so far happened to import. Every module
under ``repro`` is imported here, before the profile loads: a test run
alone draws what it draws in the full suite.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import settings

import repro

from repro.core import (
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
)
from repro.placement import balanced_placement

GIGA = 1.0e9

#: Every ``repro`` module but the ``__main__`` entry points.
REPRO_MODULES = tuple(
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if not module.name.endswith(".__main__")
)
for _name in REPRO_MODULES:
    importlib.import_module(_name)

settings.register_profile("tier1", derandomize=True)
#: The gate's seeded exploratory stage (``--hypothesis-profile=explore
#: --hypothesis-seed=N``): fresh examples per seed, replayable by seed.
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture
def pipeline_descriptor() -> ApplicationDescriptor:
    """The minimal scenario of Sec. 4.1 / Fig. 1.

    Two PEs in a pipeline, selectivity 1, 100 ms per tuple on a 1 GHz
    core (0.1e9 cycles); one source with Low = 4 t/s (p = 0.8) and
    High = 8 t/s (p = 0.2).
    """
    graph = ApplicationGraph.build(
        sources=["src"],
        pes=["pe1", "pe2"],
        sinks=["sink"],
        edges=[("src", "pe1"), ("pe1", "pe2"), ("pe2", "sink")],
    )
    space = ConfigurationSpace.two_level("src", 4.0, 8.0, 0.8)
    profiles = {
        ("src", "pe1"): EdgeProfile(selectivity=1.0, cpu_cost=0.1 * GIGA),
        ("pe1", "pe2"): EdgeProfile(selectivity=1.0, cpu_cost=0.1 * GIGA),
    }
    return ApplicationDescriptor(graph, profiles, space, name="pipeline")


@pytest.fixture
def pipeline_deployment(pipeline_descriptor):
    """Fig. 2a: the pipeline replicated twice over two hosts.

    Hosts have two 1 GHz cores each, so the High configuration with full
    replication (1.6e9 cycles/s per host) fits only by deactivation when
    capacity is single-core; with two cores it is feasible — tests pick
    the deployment they need.
    """
    hosts = [
        Host("h0", cores=2, cycles_per_core=GIGA),
        Host("h1", cores=2, cycles_per_core=GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, replication_factor=2)


@pytest.fixture
def tight_pipeline_deployment(pipeline_descriptor):
    """Fig. 2a with the paper's single-core hosts.

    Each host holds one replica of each PE and saturates in the High
    configuration when everything is active (exactly the Fig. 3 scenario:
    High needs 160% of the total CPU).
    """
    hosts = [
        Host("h0", cores=2, cycles_per_core=0.5 * GIGA),
        Host("h1", cores=2, cycles_per_core=0.5 * GIGA),
    ]
    return balanced_placement(pipeline_descriptor, hosts, replication_factor=2)


@pytest.fixture
def diamond_descriptor() -> ApplicationDescriptor:
    """A fan-out / fan-in DAG exercising multi-predecessor PEs.

        src -> a -> b -> d -> sink
                \\-> c -/

    with non-trivial selectivities so rate propagation is not the
    identity.
    """
    graph = ApplicationGraph.build(
        sources=["src"],
        pes=["a", "b", "c", "d"],
        sinks=["sink"],
        edges=[
            ("src", "a"),
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("d", "sink"),
        ],
    )
    space = ConfigurationSpace.two_level("src", 5.0, 10.0, 0.75)
    profiles = {
        ("src", "a"): EdgeProfile(selectivity=1.0, cpu_cost=0.02 * GIGA),
        ("a", "b"): EdgeProfile(selectivity=0.5, cpu_cost=0.03 * GIGA),
        ("a", "c"): EdgeProfile(selectivity=1.5, cpu_cost=0.01 * GIGA),
        ("b", "d"): EdgeProfile(selectivity=1.0, cpu_cost=0.02 * GIGA),
        ("c", "d"): EdgeProfile(selectivity=0.8, cpu_cost=0.015 * GIGA),
    }
    return ApplicationDescriptor(graph, profiles, space, name="diamond")


@pytest.fixture
def diamond_deployment(diamond_descriptor):
    hosts = [
        Host("h0", cores=4, cycles_per_core=GIGA),
        Host("h1", cores=4, cycles_per_core=GIGA),
    ]
    return balanced_placement(diamond_descriptor, hosts, replication_factor=2)

