"""Tests for communication accounting and communication-aware placement."""

from __future__ import annotations

import pytest

from repro.core import Host
from repro.dsps import InputTrace, StreamPlatform, TraceSegment
from repro.errors import DeploymentError
from repro.placement import (
    balanced_placement,
    communication_aware_placement,
    deployment_traffic,
    expected_traffic,
)

GIGA = 1.0e9


def hosts(n, cores=4, cycles=GIGA):
    return [
        Host(f"h{i}", cores=cores, cycles_per_core=cycles) for i in range(n)
    ]


class TestExpectedTraffic:
    def test_pipeline_edges(self, pipeline_descriptor):
        traffic = expected_traffic(pipeline_descriptor)
        # Only the PE->PE edge counts; src->pe1 is external ingress.
        assert set(traffic) == {("pe1", "pe2")}
        # E[rate] = 0.8*4 + 0.2*8 = 4.8 t/s.
        assert traffic[("pe1", "pe2")] == pytest.approx(4.8)

    def test_diamond_edges(self, diamond_descriptor):
        traffic = expected_traffic(diamond_descriptor)
        assert ("a", "b") in traffic and ("c", "d") in traffic
        assert ("src", "a") not in traffic


class TestDeploymentTraffic:
    def test_colocated_chain_has_zero_cut(self, pipeline_descriptor):
        from repro.core import ReplicaId, ReplicatedDeployment

        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 1): "h1",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts(2), assignment, 2
        )
        # Each receiver replica shares a host with one sender replica;
        # the cross pairs (sender on the other host) contribute rate/k
        # each: 2 receivers x 1 cross sender x 4.8/2 = 4.8.
        assert deployment_traffic(deployment) == pytest.approx(4.8)

    def test_anti_located_chain_has_full_cut(self, pipeline_descriptor):
        from repro.core import ReplicaId, ReplicatedDeployment

        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe2", 0): "h1",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 1): "h0",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts(2), assignment, 2
        )
        # Receivers still each share a host with one sender here (pe2#0
        # on h1 with pe1#1, etc.) - traffic identical by symmetry.
        assert deployment_traffic(deployment) == pytest.approx(4.8)


class TestCommunicationAwarePlacement:
    def test_never_worse_than_lpt(self, diamond_descriptor):
        lpt = balanced_placement(diamond_descriptor, hosts(3))
        aware = communication_aware_placement(diamond_descriptor, hosts(3))
        assert deployment_traffic(aware) <= deployment_traffic(lpt) + 1e-9

    def test_constraints_preserved(self, diamond_descriptor):
        aware = communication_aware_placement(diamond_descriptor, hosts(3))
        for pe in diamond_descriptor.graph.pes:
            homes = {aware.host_of(r) for r in aware.replicas_of(pe)}
            assert len(homes) == 2
        for host in aware.host_names:
            assert len(aware.replicas_on(host)) <= 4
        # Load safety: within 10% of LPT's worst host.
        lpt = balanced_placement(diamond_descriptor, hosts(3))
        for c in range(2):
            lpt_max = max(
                lpt.host_load(h, c) for h in lpt.host_names
            )
            aware_max = max(
                aware.host_load(h, c) for h in aware.host_names
            )
            assert aware_max <= lpt_max * 1.10 + 1e-9

    def test_validation(self, diamond_descriptor):
        with pytest.raises(DeploymentError):
            communication_aware_placement(
                diamond_descriptor, hosts(3), load_tolerance=-0.1
            )
        with pytest.raises(DeploymentError):
            communication_aware_placement(
                diamond_descriptor, hosts(3), max_passes=0
            )

    def test_deterministic(self, diamond_descriptor):
        a = communication_aware_placement(diamond_descriptor, hosts(3))
        b = communication_aware_placement(diamond_descriptor, hosts(3))
        assert a.to_dict() == b.to_dict()


class TestRuntimeNetworkAccounting:
    def test_counters_split_by_host(self, pipeline_descriptor):
        deployment = balanced_placement(
            pipeline_descriptor, hosts(2, cores=2, cycles=0.5 * GIGA)
        )
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(4.0, 10.0, "Low")])},
        )
        metrics = platform.run()
        network = metrics.network
        # pe1 primary -> both pe2 replicas: one local, one remote per
        # tuple under the balanced placement.
        assert network.inter_host_tuples > 0
        assert (
            network.inter_host_tuples + network.intra_host_tuples
            == pytest.approx(80, abs=4)
        )

    def test_simulated_traffic_matches_model(self, pipeline_descriptor):
        deployment = balanced_placement(
            pipeline_descriptor, hosts(2, cores=2, cycles=0.5 * GIGA)
        )
        duration = 30.0
        platform = StreamPlatform(
            deployment,
            {"src": InputTrace([TraceSegment(4.0, duration, "Low")])},
        )
        metrics = platform.run()
        # Model: Low-only trace -> 4 t/s on the pe1->pe2 edge; per tuple
        # the primary sends to 2 receivers, of which the cross-host share
        # is what deployment_traffic estimates at rate/k per pair.
        measured_rate = metrics.network.inter_host_tuples / duration
        # With one fixed primary the true cut is 1 remote receiver x 4 t/s.
        assert measured_rate == pytest.approx(4.0, rel=0.1)