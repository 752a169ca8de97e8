"""Tests for variant construction (NR/SR/GRD/L.x)."""

from __future__ import annotations

import pytest

from repro.core import (
    cpu_constraint_violations,
    internal_completeness,
    strategy_cost,
)
from repro.errors import ExperimentError
from repro.experiments import build_variants, laar_variant_name
from repro.workloads import GeneratorParams, generate_application


@pytest.fixture(scope="module")
def small_app():
    return generate_application(11, params=GeneratorParams(n_pes=8))


@pytest.fixture(scope="module")
def variants(small_app):
    return build_variants(small_app, ic_targets=(0.3, 0.5))


class TestNames:
    def test_laar_variant_name(self):
        assert laar_variant_name(0.5) == "L.5"
        assert laar_variant_name(0.65) == "L.65"
        assert laar_variant_name(1.0) == "L1"

    def test_variant_ordering(self, variants):
        assert variants.names == ("NR", "SR", "GRD", "L.3", "L.5")

    def test_unknown_variant_rejected(self, variants):
        with pytest.raises(ExperimentError):
            variants.is_dynamic("GHOST")


class TestStrategies:
    def test_laar_strategies_meet_targets(self, variants):
        for name, target in (("L.3", 0.3), ("L.5", 0.5)):
            strategy = variants.strategies[name]
            assert internal_completeness(strategy) >= target - 1e-9
            assert cpu_constraint_violations(strategy) == []

    def test_guaranteed_ic_reported(self, variants):
        assert variants.guaranteed_ic("L.3") >= 0.3
        assert variants.guaranteed_ic("SR") is None

    def test_nr_single_replica_everywhere(self, variants, small_app):
        nr = variants.strategies["NR"]
        for pe in small_app.descriptor.graph.pes:
            for c in range(2):
                assert nr.active_count(pe, c) == 1

    def test_grd_never_overloads(self, variants):
        assert cpu_constraint_violations(variants.strategies["GRD"]) == []

    def test_cost_ordering(self, variants):
        costs = {
            name: strategy_cost(strategy)
            for name, strategy in variants.strategies.items()
        }
        assert costs["NR"] < costs["L.3"] <= costs["L.5"] < costs["SR"]

    def test_dynamism_flags(self, variants):
        assert not variants.is_dynamic("NR")
        assert not variants.is_dynamic("SR")
        assert variants.is_dynamic("GRD")
        assert variants.is_dynamic("L.5")

    def test_infeasible_target_raises(self, small_app):
        with pytest.raises(ExperimentError, match="no strategy"):
            build_variants(small_app, ic_targets=(1.0,))
