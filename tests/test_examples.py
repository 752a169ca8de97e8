"""Smoke tests: every example script imports and its cheap pieces run.

The examples are part of the public deliverable; these tests keep them
from rotting. Full `main()` runs are exercised only for the fast ones.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXAMPLE_FILES = [
    "quickstart.py",
    "smart_city_traffic.py",
    "capacity_planning.py",
    "ftsearch_anatomy.py",
    "profile_and_deploy.py",
    "provider_contracting.py",
]


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLE_FILES)
def test_example_imports(name):
    module = load_example(name)
    assert hasattr(module, "main")


def test_quickstart_builds_the_paper_application():
    module = load_example("quickstart.py")
    descriptor = module.build_application()
    assert list(descriptor.graph.pes) == ["pe1", "pe2"]
    space = descriptor.configuration_space
    assert space.by_label("Low").rate_of("src") == 4.0


def test_smart_city_application_is_well_formed():
    module = load_example("smart_city_traffic.py")
    descriptor = module.build_traffic_application()
    assert "signal_ctl" in descriptor.graph.pes
    assert descriptor.configuration_space.by_label("High").rate_of(
        "vehicles"
    ) == 14.0


def test_profile_and_deploy_customer_application():
    module = load_example("profile_and_deploy.py")
    graph, profiles = module.customer_application()
    assert set(graph.pes) == {"parse", "enrich", "window", "detect"}
    assert all(p.cpu_cost > 0 for p in profiles.values())


def test_provider_contracting_tiers_are_ordered():
    module = load_example("provider_contracting.py")
    targets = [sla.ic_target for sla in module.TIERS.values()]
    assert targets == sorted(targets)


def test_quickstart_main_runs_end_to_end(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "FT-Search" in out
    assert "LAAR configuration switches" in out


def test_ftsearch_anatomy_main_runs(capsys):
    module = load_example("ftsearch_anatomy.py")
    module.main()
    out = capsys.readouterr().out
    assert "pruning effectiveness" in out
    assert "anytime behaviour" in out


def test_capacity_planning_main_runs(capsys):
    module = load_example("capacity_planning.py")
    module.main()
    out = capsys.readouterr().out
    assert "IC target   outcome   cost (Gcyc/s)" in out
