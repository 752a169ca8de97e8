"""Cross-tenant host packing for the fleet control plane.

The per-tenant placement algorithms in :mod:`repro.placement.algorithms`
assign replicas to *tenant-local* hosts (the slice the application was
sized for). A provider runs many such slices on one shared cluster; the
:class:`HostPool` here maps each tenant-local host onto a **distinct**
shared host with enough free cores. Mapping local hosts to distinct
shared hosts preserves the anti-affinity invariant for free: replicas of
the same PE live on different local hosts, so they land on different
shared hosts too, and a shared-host failure still cannot take out a
whole PE.

Reservations are all-or-nothing and the pool keeps per-tenant isolation
accounting (which tenant holds how many cores on which host), so an
admission controller can reject on capacity without partially-placed
tenants and an eviction returns exactly the cores the tenant held.

The pool has no host lifecycle: cordon, drain and reclaim belong to the
elasticity layer's :class:`~repro.elastic.migration.MigrationEngine`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.deployment import Host
from repro.errors import DeploymentError

__all__ = ["HostPool"]


class HostPool:
    """Shared-cluster core accounting with distinct-host reservations.

    ``reserve`` uses deterministic worst-fit: local hosts are placed
    heaviest-first, each onto the shared host with the most free cores
    (ties broken by host name) among those not already used by the same
    reservation. Worst-fit keeps free cores spread out, which is what a
    later tenant needing several *distinct* hosts wants; it is a
    heuristic, so a tenant may be refused that an optimal matching could
    still fit — the admission controller treats that as a capacity
    rejection like any other.
    """

    def __init__(self, hosts: Sequence[Host]) -> None:
        if not hosts:
            raise DeploymentError("a host pool needs at least one host")
        self._hosts: dict[str, Host] = {}
        for host in hosts:
            if host.name in self._hosts:
                raise DeploymentError(f"duplicate host name {host.name!r}")
            self._hosts[host.name] = host
        self._free: dict[str, int] = {h.name: h.cores for h in hosts}
        #: host name -> {tenant: cores held} (the isolation ledger)
        self._held: dict[str, dict[str, int]] = {h.name: {} for h in hosts}
        #: tenant -> {local host name -> shared host name}
        self._placements: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Reservation / release
    # ------------------------------------------------------------------

    def reserve(
        self, tenant: str, requests: Mapping[str, int]
    ) -> Optional[dict[str, str]]:
        """Reserve cores for ``tenant``; returns local->shared mapping.

        ``requests`` maps each tenant-local host name to the cores it
        needs. Every local host is mapped to a *distinct* shared host.
        Returns None — with no state change — when the pool cannot fit
        the reservation.
        """
        if tenant in self._placements:
            raise DeploymentError(
                f"tenant {tenant!r} already holds a reservation"
            )
        if not requests:
            raise DeploymentError("a reservation must request cores")
        for local, cores in requests.items():
            if cores < 1:
                raise DeploymentError(
                    f"request for local host {local!r} must be >= 1 core,"
                    f" got {cores}"
                )

        free = dict(self._free)
        mapping: dict[str, str] = {}
        # Heaviest local hosts first; name breaks ties deterministically.
        order = sorted(requests.items(), key=lambda kv: (-kv[1], kv[0]))
        for local, cores in order:
            candidates = [
                name
                for name, available in free.items()
                if available >= cores
                and name not in mapping.values()
            ]
            if not candidates:
                return None
            target = min(candidates, key=lambda name: (-free[name], name))
            mapping[local] = target
            free[target] -= cores

        # Commit only after the whole reservation fits.
        for local, shared in mapping.items():
            cores = requests[local]
            self._free[shared] -= cores
            held = self._held[shared]
            held[tenant] = held.get(tenant, 0) + cores
        self._placements[tenant] = mapping
        return dict(mapping)

    def release(self, tenant: str) -> None:
        """Return every core held by ``tenant`` to the pool."""
        if tenant not in self._placements:
            raise DeploymentError(f"tenant {tenant!r} holds no reservation")
        del self._placements[tenant]
        for host, held in self._held.items():
            cores = held.pop(tenant, 0)
            self._free[host] += cores

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def hosts(self) -> tuple[Host, ...]:
        return tuple(self._hosts[name] for name in sorted(self._hosts))

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(sorted(self._placements))

    def free_cores(self, host: Optional[str] = None) -> int:
        if host is not None:
            if host not in self._free:
                raise DeploymentError(f"unknown host {host!r}")
            return self._free[host]
        return sum(self._free.values())

    @property
    def total_cores(self) -> int:
        return sum(h.cores for h in self._hosts.values())

    @property
    def used_cores(self) -> int:
        """Cores held by tenants."""
        return sum(sum(held.values()) for held in self._held.values())

    def occupancy(self) -> dict:
        """A canonical JSON-friendly view of the pool (sorted keys)."""
        hosts = []
        for name in sorted(self._hosts):
            held = self._held[name]
            hosts.append(
                {
                    "host": name,
                    "cores": self._hosts[name].cores,
                    "used": sum(held.values()),
                    "free": self._free[name],
                    "tenants": {t: held[t] for t in sorted(held)},
                }
            )
        total = self.total_cores
        used = self.used_cores
        return {
            "hosts": hosts,
            "total_cores": total,
            "used_cores": used,
            "free_cores": self.free_cores(),
            "utilization": round(used / total, 6),
            "tenants": len(self._placements),
        }
