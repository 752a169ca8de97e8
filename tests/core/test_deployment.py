"""Unit tests for hosts, replicas, and replicated deployments."""

from __future__ import annotations

import pytest

from repro.core import (
    Host,
    ReplicaId,
    ReplicatedDeployment,
)
from repro.errors import DeploymentError

GIGA = 1.0e9


class TestHost:
    def test_capacity(self):
        host = Host("h", cores=4, cycles_per_core=2.0 * GIGA)
        assert host.capacity == pytest.approx(8.0 * GIGA)

    def test_rejects_zero_cores(self):
        with pytest.raises(DeploymentError):
            Host("h", cores=0)

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(DeploymentError):
            Host("h", cycles_per_core=0.0)

    def test_rejects_empty_name(self):
        with pytest.raises(DeploymentError):
            Host("")


class TestReplicaId:
    def test_rejects_negative_index(self):
        with pytest.raises(DeploymentError):
            ReplicaId("pe", -1)

    def test_ordering_is_stable(self):
        assert ReplicaId("a", 0) < ReplicaId("a", 1) < ReplicaId("b", 0)

    def test_parse_inverts_the_wire_format(self):
        replica = ReplicaId("pe03", 12)
        assert str(replica) == "pe03#12"
        assert ReplicaId.parse(str(replica)) == replica

    @pytest.mark.parametrize("text", ["pe03", "pe03#", "pe03#one"])
    def test_parse_names_malformed_text_in_a_typed_error(self, text):
        # Artifacts replay from disk through this path: a damaged log
        # must surface as a ReproError, not a bare ValueError.
        with pytest.raises(DeploymentError, match=text):
            ReplicaId.parse(text)


def manual_deployment(pipeline_descriptor, assignment=None):
    hosts = [Host("h0", cores=2, cycles_per_core=GIGA),
             Host("h1", cores=2, cycles_per_core=GIGA)]
    if assignment is None:
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
    return ReplicatedDeployment(pipeline_descriptor, hosts, assignment, 2)


class TestDeploymentValidation:
    def test_valid_deployment(self, pipeline_descriptor):
        deployment = manual_deployment(pipeline_descriptor)
        assert deployment.host_of(ReplicaId("pe1", 0)) == "h0"
        assert set(deployment.replicas_on("h1")) == {
            ReplicaId("pe1", 1),
            ReplicaId("pe2", 1),
        }

    def test_replicas_sorted_by_topology(self, pipeline_descriptor):
        deployment = manual_deployment(pipeline_descriptor)
        assert deployment.replicas == (
            ReplicaId("pe1", 0),
            ReplicaId("pe1", 1),
            ReplicaId("pe2", 0),
            ReplicaId("pe2", 1),
        )

    def test_replicas_of_an_unknown_pe_is_a_typed_error(
        self, pipeline_descriptor
    ):
        deployment = manual_deployment(pipeline_descriptor)
        assert deployment.replicas_of("pe1") == (
            ReplicaId("pe1", 0),
            ReplicaId("pe1", 1),
        )
        with pytest.raises(DeploymentError, match="unknown PE 'nope'"):
            deployment.replicas_of("nope")

    def test_same_host_replicas_rejected(self, pipeline_descriptor):
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h0",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        with pytest.raises(DeploymentError, match="share a host"):
            manual_deployment(pipeline_descriptor, assignment)

    def test_missing_replica_rejected(self, pipeline_descriptor):
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        with pytest.raises(DeploymentError, match="replicas 0..1"):
            manual_deployment(pipeline_descriptor, assignment)

    def test_unknown_pe_rejected(self, pipeline_descriptor):
        assignment = {
            ReplicaId("ghost", 0): "h0",
            ReplicaId("ghost", 1): "h1",
        }
        with pytest.raises(DeploymentError, match="unknown PE"):
            manual_deployment(pipeline_descriptor, assignment)

    def test_unknown_host_rejected(self, pipeline_descriptor):
        assignment = {
            ReplicaId("pe1", 0): "h9",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        with pytest.raises(DeploymentError, match="unknown host"):
            manual_deployment(pipeline_descriptor, assignment)

    def test_bad_replication_factor(self, pipeline_descriptor):
        with pytest.raises(DeploymentError):
            ReplicatedDeployment(pipeline_descriptor, [Host("h")], {}, 0)


class TestLoadQueries:
    def test_host_load_all_active(self, pipeline_descriptor):
        deployment = manual_deployment(pipeline_descriptor)
        # h0 carries one replica of each PE; High config: 0.8e9 x 2.
        assert deployment.host_load("h0", 1) == pytest.approx(1.6 * GIGA)

    def test_host_load_respects_active_map(self, pipeline_descriptor):
        deployment = manual_deployment(pipeline_descriptor)
        active = {replica: False for replica in deployment.replicas}
        active[ReplicaId("pe1", 0)] = True
        assert deployment.host_load("h0", 1, active) == (
            pytest.approx(0.8 * GIGA)
        )

    def test_overload_detection(self, pipeline_descriptor):
        # Single-core 1 GHz hosts: High with everything active needs
        # 1.6e9 > 1.0e9 per host.
        hosts = [Host("h0", cores=1, cycles_per_core=GIGA),
                 Host("h1", cores=1, cycles_per_core=GIGA)]
        assignment = {
            ReplicaId("pe1", 0): "h0",
            ReplicaId("pe1", 1): "h1",
            ReplicaId("pe2", 0): "h0",
            ReplicaId("pe2", 1): "h1",
        }
        deployment = ReplicatedDeployment(
            pipeline_descriptor, hosts, assignment, 2
        )
        assert not deployment.is_overloaded(0)
        assert deployment.is_overloaded(1)
        assert deployment.overloaded_hosts(1) == ("h0", "h1")


class TestSerialisation:
    def test_round_trip(self, pipeline_descriptor):
        deployment = manual_deployment(pipeline_descriptor)
        clone = ReplicatedDeployment.from_dict(
            pipeline_descriptor, deployment.to_dict()
        )
        assert clone.to_dict() == deployment.to_dict()
