"""Tests for application bundle persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    GeneratorParams,
    bundle_from_dict,
    bundle_to_dict,
    generate_application,
    load_bundle,
    save_bundle,
)


@pytest.fixture(scope="module")
def small_apps():
    params = GeneratorParams(n_pes=6)
    return [
        generate_application(seed, params=params, name=f"bundle-{seed}")
        for seed in (60, 61)
    ]


class TestBundleRoundTrip:
    def test_dict_round_trip(self, small_apps):
        app = small_apps[0]
        clone = bundle_from_dict(bundle_to_dict(app))
        assert clone.descriptor.to_dict() == app.descriptor.to_dict()
        assert clone.deployment.to_dict() == app.deployment.to_dict()
        assert clone.low_rate == app.low_rate
        assert clone.high_rate == app.high_rate
        assert clone.seed == app.seed

    def test_file_round_trip(self, small_apps, tmp_path):
        app = small_apps[0]
        path = tmp_path / "app.json"
        save_bundle(app, path)
        clone = load_bundle(path)
        assert clone.name == app.name
        assert clone.descriptor.to_dict() == app.descriptor.to_dict()

    def test_wrong_format_rejected(self):
        with pytest.raises(WorkloadError, match="not an application bundle"):
            bundle_from_dict({"format": "something-else"})

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(WorkloadError, match="invalid bundle JSON"):
            load_bundle(path)

    def test_loaded_bundle_is_usable(self, small_apps, tmp_path):
        """A reloaded bundle drives the optimizer like the original: the
        same anytime answer when a node budget cuts both searches (the
        space takes 461 nodes to exhaust)."""
        from repro.core import OptimizationProblem, ft_search

        app = small_apps[0]
        path = tmp_path / "app.json"
        save_bundle(app, path)
        clone = load_bundle(path)
        original = ft_search(
            OptimizationProblem(app.deployment, ic_target=0.3),
            node_limit=200, seed_incumbent=True,
        )
        reloaded = ft_search(
            OptimizationProblem(clone.deployment, ic_target=0.3),
            node_limit=200, seed_incumbent=True,
        )
        assert original.strategy is not None
        assert reloaded.strategy is not None
        assert reloaded.best_cost == pytest.approx(
            original.best_cost, rel=1e-6
        )


class TestCorpus:
    def test_bundle_files_are_valid_json(self, small_apps, tmp_path):
        for app in small_apps:
            path = tmp_path / f"{app.name}.json"
            save_bundle(app, path)
            payload = json.loads(path.read_text())
            assert payload["format"].startswith("repro-application-bundle")
