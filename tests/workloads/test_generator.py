"""Tests for the synthetic application generator (Sec. 5.2 calibration)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RateTable
from repro.core.baselines import greedy_deactivation
from repro.errors import WorkloadError
from repro.workloads import (
    ClusterParams,
    GeneratorParams,
    generate_application,
    generate_corpus,
)


class TestParams:
    def test_rejects_bad_n_pes(self):
        with pytest.raises(WorkloadError):
            GeneratorParams(n_pes=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(WorkloadError):
            GeneratorParams(low_probability=1.5)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(WorkloadError):
            GeneratorParams(rate_ratio_range=(0.9, 1.5))

    def test_cluster_hosts(self):
        cluster = ClusterParams(n_hosts=3, cores_per_host=4)
        hosts = cluster.hosts()
        assert len(hosts) == 3
        assert all(h.cores == 4 for h in hosts)


class TestCalibration:
    def test_deterministic_in_seed(self):
        a = generate_application(5)
        b = generate_application(5)
        assert a.descriptor.to_dict() == b.descriptor.to_dict()
        assert a.deployment.to_dict() == b.deployment.to_dict()

    def test_different_seeds_differ(self):
        a = generate_application(5)
        b = generate_application(6)
        assert a.descriptor.to_dict() != b.descriptor.to_dict()

    def test_paper_condition_low_fits(self):
        app = generate_application(3)
        assert not app.deployment.is_overloaded(0)

    def test_paper_condition_high_overloads(self):
        app = generate_application(3)
        assert app.deployment.is_overloaded(1)

    def test_greedy_has_room_to_fix_high(self):
        app = generate_application(3)
        # The generator guarantees a dynamic strategy can de-overload.
        greedy_deactivation(app.deployment)

    def test_structure_matches_parameters(self):
        params = GeneratorParams(n_pes=12)
        app = generate_application(0, params=params)
        graph = app.descriptor.graph
        assert len(graph.pes) == 12
        assert graph.sources == ("src",)
        assert graph.sinks == ("sink",)

    def test_selectivities_in_band(self):
        app = generate_application(7)
        descriptor = app.descriptor
        for pe in descriptor.graph.pes:
            for edge in descriptor.graph.pe_input_edges(pe):
                selectivity = descriptor.selectivity(edge.tail, pe)
                assert 0.5 <= selectivity <= 1.5

    def test_rates_in_paper_band(self):
        app = generate_application(8)
        assert 1.0 <= app.low_rate <= 20.0
        assert app.high_rate > app.low_rate

    def test_throughput_budget_respected(self):
        params = GeneratorParams(n_pes=16, tuple_budget=300.0)
        app = generate_application(2, params=params)
        table = RateTable(app.descriptor)
        assert table.total_pe_input_rate(1) <= 300.0 + 1e-6

    def test_corpus_names_and_size(self):
        corpus = generate_corpus(3, base_seed=50)
        assert len(corpus) == 3
        assert [app.name for app in corpus] == [
            "app-050",
            "app-051",
            "app-052",
        ]

    def test_corpus_size_validated(self):
        with pytest.raises(WorkloadError):
            generate_corpus(0)


class TestCalibrationProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_calibration_invariants_hold_for_any_seed(self, seed):
        params = GeneratorParams(n_pes=10)
        cluster = ClusterParams(n_hosts=3, cores_per_host=8)
        app = generate_application(seed, params=params, cluster=cluster)
        assert not app.deployment.is_overloaded(0)
        assert app.deployment.is_overloaded(1)
        # Low utilisation calibrated to the configured headroom.
        max_low = max(
            app.deployment.host_load(host, 0)
            for host in app.deployment.host_names
        )
        capacity = app.deployment.hosts[0].capacity
        assert max_low == pytest.approx(
            params.low_utilization * capacity, rel=1e-6
        )
