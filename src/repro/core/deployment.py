"""Replicated deployments: hosts, replicas, and the assignment function.

Section 4.2: a placement algorithm computes a *replicated* assignment of
``k`` replicas of each PE to a set of hosts ``H``; the assignment function
``theta`` maps every PE replica to the host where it is deployed. This
module implements hosts (with their CPU capacity ``K`` from Eq. 11),
replica identities, and the deployment object the optimizer, baselines,
and simulator all consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.descriptor import ApplicationDescriptor
from repro.errors import DeploymentError

__all__ = ["Host", "ReplicaId", "ReplicatedDeployment"]


@dataclass(frozen=True, order=True)
class Host:
    """A processing host.

    ``cores`` logical cores, each delivering ``cycles_per_core`` CPU cycles
    per second. The paper's Eq. 11 constant ``K`` for this host is
    ``capacity = cores * cycles_per_core``.
    """

    name: str
    cores: int = 1
    cycles_per_core: float = 1.0e9

    def __post_init__(self) -> None:
        if not self.name:
            raise DeploymentError("host name must be non-empty")
        if self.cores < 1:
            raise DeploymentError(f"host {self.name!r} must have >= 1 core")
        if self.cycles_per_core <= 0 or not math.isfinite(self.cycles_per_core):
            raise DeploymentError(
                f"host {self.name!r} cycles_per_core must be finite and > 0"
            )

    @property
    def capacity(self) -> float:
        """Total CPU cycles per second (the K of Eq. 11)."""
        return self.cores * self.cycles_per_core


@dataclass(frozen=True, order=True)
class ReplicaId:
    """Identity of one replica: the paper's x-tilde_{i,j}."""

    pe: str
    replica: int

    def __post_init__(self) -> None:
        if self.replica < 0:
            raise DeploymentError(
                f"replica index must be >= 0, got {self.replica}"
            )

    def __str__(self) -> str:
        """The event-log wire format, ``pe#index``."""
        return f"{self.pe}#{self.replica}"

    @classmethod
    def parse(cls, text: str) -> ReplicaId:
        """Inverse of ``str()``; malformed text is a typed error."""
        pe, _, index = text.partition("#")
        try:
            return cls(pe, int(index))
        except ValueError:
            raise DeploymentError(
                f"malformed replica id {text!r} (expected 'pe#index')"
            ) from None


class ReplicatedDeployment:
    """A replicated assignment theta of PE replicas to hosts.

    Parameters
    ----------
    descriptor:
        The application being deployed.
    hosts:
        The available hosts. Names must be unique.
    assignment:
        Maps every :class:`ReplicaId` to a host name. Every PE must have
        exactly ``replication_factor`` replicas, numbered ``0..k-1``, and
        replicas of the same PE must live on distinct hosts (otherwise a
        single host failure defeats the replication).
    replication_factor:
        The paper's ``k``; LAAR's FT-Search assumes ``k == 2`` but the
        deployment model is general.

    Immutable after validation: the sorted hosts and host names, the
    replicas in (PE topological position, replica) order, each PE's
    replica ids and each host's residents are tuples built here, once,
    and every accessor returns the stored object.
    """

    def __init__(
        self,
        descriptor: ApplicationDescriptor,
        hosts: Iterable[Host],
        assignment: Mapping[ReplicaId, str],
        replication_factor: int = 2,
    ) -> None:
        if replication_factor < 1:
            raise DeploymentError(
                f"replication factor must be >= 1, got {replication_factor}"
            )
        self._descriptor = descriptor
        self._k = replication_factor
        self._hosts: dict[str, Host] = {}
        for host in hosts:
            if host.name in self._hosts:
                raise DeploymentError(f"duplicate host name {host.name!r}")
            self._hosts[host.name] = host
        if not self._hosts:
            raise DeploymentError("deployment has no hosts")

        pes = descriptor.graph.pes
        self._assignment: dict[ReplicaId, str] = {}
        per_pe: dict[str, dict[int, ReplicaId]] = {
            pe: {} for pe in sorted(pes)
        }
        for replica_id, host_name in assignment.items():
            if replica_id.pe not in per_pe:
                raise DeploymentError(
                    f"assignment references unknown PE {replica_id.pe!r}"
                )
            if host_name not in self._hosts:
                raise DeploymentError(
                    f"assignment references unknown host {host_name!r}"
                )
            if not 0 <= replica_id.replica < replication_factor:
                raise DeploymentError(
                    f"replica index {replica_id.replica} out of range for"
                    f" k={replication_factor}"
                )
            per_pe[replica_id.pe][replica_id.replica] = replica_id
            self._assignment[replica_id] = host_name

        # Walked in sorted PE order, replica 0..k-1: ReplicaId order, so
        # each host's residents come out sorted.
        indices = range(replication_factor)
        by_host: dict[str, list[ReplicaId]] = {n: [] for n in self._hosts}
        self._by_pe: dict[str, tuple[ReplicaId, ...]] = {}
        for pe, replicas in per_pe.items():
            if sorted(replicas) != list(indices):
                raise DeploymentError(
                    f"PE {pe!r} must have replicas 0..{replication_factor - 1},"
                    f" got {sorted(replicas)}"
                )
            members = tuple(replicas[j] for j in indices)
            host_names = [self._assignment[r] for r in members]
            if len(set(host_names)) != len(host_names):
                raise DeploymentError(
                    f"replicas of PE {pe!r} share a host: {host_names}"
                )
            self._by_pe[pe] = members
            for replica_id, host_name in zip(members, host_names):
                by_host[host_name].append(replica_id)

        self._by_host: dict[str, tuple[ReplicaId, ...]] = {
            name: tuple(residents) for name, residents in by_host.items()
        }
        self._host_names = tuple(sorted(self._hosts))
        self._sorted_hosts = tuple(
            self._hosts[name] for name in self._host_names
        )
        self._replicas = tuple(r for pe in pes for r in self._by_pe[pe])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def descriptor(self) -> ApplicationDescriptor:
        return self._descriptor

    @property
    def replication_factor(self) -> int:
        return self._k

    @property
    def hosts(self) -> tuple[Host, ...]:
        """The hosts, sorted by name."""
        return self._sorted_hosts

    @property
    def host_names(self) -> tuple[str, ...]:
        return self._host_names

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise DeploymentError(f"unknown host {name!r}") from None

    @property
    def replicas(self) -> tuple[ReplicaId, ...]:
        """All replicas, ordered by (PE topological position, replica)."""
        return self._replicas

    def replicas_of(self, pe: str) -> tuple[ReplicaId, ...]:
        """The ``k`` replica ids of ``pe``, by replica index."""
        try:
            return self._by_pe[pe]
        except KeyError:
            raise DeploymentError(f"unknown PE {pe!r}") from None

    def host_of(self, replica: ReplicaId) -> str:
        """theta(x-tilde): the host a replica is deployed on."""
        try:
            return self._assignment[replica]
        except KeyError:
            raise DeploymentError(f"unknown replica {replica}") from None

    def replicas_on(self, host_name: str) -> tuple[ReplicaId, ...]:
        """theta^-1(h): the replicas deployed on a host."""
        try:
            return self._by_host[host_name]
        except KeyError:
            raise DeploymentError(f"unknown host {host_name!r}") from None

    def __iter__(self) -> Iterator[ReplicaId]:
        return iter(self.replicas)

    # ------------------------------------------------------------------
    # Load queries (Eq. 11 machinery)
    # ------------------------------------------------------------------

    def host_load(
        self,
        host_name: str,
        config_index: int,
        active: Mapping[ReplicaId, bool] | None = None,
    ) -> float:
        """CPU cycles/s the replicas on ``host_name`` need in configuration.

        ``active`` restricts the sum to replicas mapped to ``True``; when
        omitted, all replicas count (static active replication).
        """
        rate_table = self._descriptor.rate_table
        total = 0.0
        for replica in self.replicas_on(host_name):
            if active is not None and not active.get(replica, False):
                continue
            total += rate_table.replica_load(replica.pe, config_index)
        return total

    def is_overloaded(
        self,
        config_index: int,
        active: Mapping[ReplicaId, bool] | None = None,
    ) -> bool:
        """True when any host violates Eq. 11 in the given configuration."""
        return any(
            self.host_load(name, config_index, active)
            >= self._hosts[name].capacity
            for name in self._hosts
        )

    def overloaded_hosts(
        self,
        config_index: int,
        active: Mapping[ReplicaId, bool] | None = None,
    ) -> tuple[str, ...]:
        return tuple(
            name
            for name in self._host_names
            if self.host_load(name, config_index, active)
            >= self._hosts[name].capacity
        )

    def to_dict(self) -> dict:
        return {
            "replication_factor": self._k,
            "hosts": [
                {
                    "name": h.name,
                    "cores": h.cores,
                    "cycles_per_core": h.cycles_per_core,
                }
                for h in self.hosts
            ],
            "assignment": [
                {"pe": r.pe, "replica": r.replica, "host": h}
                for r, h in sorted(self._assignment.items())
            ],
        }

    @classmethod
    def from_dict(
        cls, descriptor: ApplicationDescriptor, payload: Mapping
    ) -> "ReplicatedDeployment":
        hosts = [
            Host(
                name=row["name"],
                cores=row["cores"],
                cycles_per_core=row["cycles_per_core"],
            )
            for row in payload["hosts"]
        ]
        assignment = {
            ReplicaId(row["pe"], row["replica"]): row["host"]
            for row in payload["assignment"]
        }
        return cls(
            descriptor,
            hosts,
            assignment,
            replication_factor=payload["replication_factor"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedDeployment(hosts={len(self._hosts)}, "
            f"replicas={len(self._assignment)}, k={self._k})"
        )
