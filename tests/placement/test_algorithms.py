"""Tests for replicated placement algorithms."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Host, RateTable
from repro.errors import DeploymentError
from repro.placement import balanced_placement
from tests.support import random_descriptor

GIGA = 1.0e9


def hosts(n, cores=4, cycles=GIGA):
    return [Host(f"h{i}", cores=cores, cycles_per_core=cycles) for i in range(n)]


class TestBalancedPlacement:
    def test_anti_affinity(self, diamond_descriptor):
        deployment = balanced_placement(diamond_descriptor, hosts(3))
        for pe in diamond_descriptor.graph.pes:
            homes = {
                deployment.host_of(r) for r in deployment.replicas_of(pe)
            }
            assert len(homes) == 2

    def test_core_limits_respected(self, diamond_descriptor):
        deployment = balanced_placement(
            diamond_descriptor, hosts(4, cores=2)
        )
        for host in deployment.host_names:
            assert len(deployment.replicas_on(host)) <= 2

    def test_load_is_balanced(self, diamond_descriptor):
        deployment = balanced_placement(diamond_descriptor, hosts(2))
        table = RateTable(diamond_descriptor)
        loads = [
            sum(
                table.replica_load(r.pe, 1)
                for r in deployment.replicas_on(host)
            )
            for host in deployment.host_names
        ]
        # LPT keeps the max/min spread small for this symmetric case.
        assert max(loads) <= 2.0 * min(loads)

    def test_insufficient_cores_rejected(self, diamond_descriptor):
        with pytest.raises(DeploymentError, match="not enough cores"):
            balanced_placement(diamond_descriptor, hosts(1, cores=2))

    def test_single_host_rejected_for_k2(self, diamond_descriptor):
        with pytest.raises(DeploymentError, match="anti-affinity"):
            balanced_placement(diamond_descriptor, hosts(1, cores=16))

    def test_deterministic(self, diamond_descriptor):
        a = balanced_placement(diamond_descriptor, hosts(3))
        b = balanced_placement(diamond_descriptor, hosts(3))
        assert a.to_dict() == b.to_dict()


class TestPlacementProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_hosts=st.integers(min_value=2, max_value=5),
    )
    def test_every_replica_assigned_once(self, seed, n_hosts):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=6)
        cores = -(-2 * 6 // n_hosts)  # ceil: enough slots for 12 replicas
        deployment = balanced_placement(descriptor, hosts(n_hosts, cores=cores))
        assert len(deployment.replicas) == 2 * len(descriptor.graph.pes)
        for replica in deployment.replicas:
            assert deployment.host_of(replica) in deployment.host_names
