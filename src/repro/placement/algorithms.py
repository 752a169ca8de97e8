"""Deterministic replicated placement.

The algorithm honours the deployment rules of the paper's testbed
(Sec. 5.2): replicas of the same PE never share a host (anti-affinity, so a
host failure cannot take out a whole PE), and each host accepts at most one
replica per logical core ("1 PE per logical CPU core").
"""

from __future__ import annotations

from typing import Sequence

from repro.core.deployment import Host, ReplicaId, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor
from repro.errors import DeploymentError

__all__ = ["balanced_placement"]


def _check_capacity(
    descriptor: ApplicationDescriptor,
    hosts: Sequence[Host],
    replication_factor: int,
) -> None:
    n_pes = len(descriptor.graph.pes)
    slots = sum(h.cores for h in hosts)
    needed = n_pes * replication_factor
    if needed > slots:
        raise DeploymentError(
            f"not enough cores: {needed} replicas for {slots} cores"
        )
    if replication_factor > len(hosts):
        raise DeploymentError(
            f"anti-affinity impossible: k={replication_factor} replicas"
            f" but only {len(hosts)} hosts"
        )


def balanced_placement(
    descriptor: ApplicationDescriptor,
    hosts: Sequence[Host],
    replication_factor: int = 2,
) -> ReplicatedDeployment:
    """Longest-processing-time-first placement with anti-affinity.

    PEs are sorted by their expected all-configuration CPU demand
    (probability-weighted over the configuration space) and each replica is
    assigned to the least-loaded host that (a) does not already hold a
    replica of the same PE and (b) still has a free core. This is the
    classic LPT heuristic, which keeps per-host loads balanced so the
    Eq. 11 headroom is roughly uniform — the property the paper's testbed
    achieves by construction.
    """
    _check_capacity(descriptor, hosts, replication_factor)
    rate_table = descriptor.rate_table
    space = descriptor.configuration_space

    def expected_load(pe: str) -> float:
        return sum(
            config.probability * rate_table.replica_load(pe, config.index)
            for config in space
        )

    # Sort heaviest first; break ties by name for determinism.
    pes = sorted(descriptor.graph.pes, key=lambda pe: (-expected_load(pe), pe))

    load: dict[str, float] = {h.name: 0.0 for h in hosts}
    free_cores: dict[str, int] = {h.name: h.cores for h in hosts}
    assignment: dict[ReplicaId, str] = {}

    loads_by_pe = {pe: expected_load(pe) for pe in pes}

    def place(pe: str, replica_index: int, target: str) -> None:
        assignment[ReplicaId(pe, replica_index)] = target
        load[target] += loads_by_pe[pe]
        free_cores[target] -= 1

    def repair(pe: str, used_hosts: set[str]) -> str:
        """Free a slot on a host not in ``used_hosts`` by relocating an
        already-placed replica onto a host with spare cores.

        LPT can dead-end when slots are exactly sufficient: the only
        free cores sit on hosts that already hold a sibling replica.
        Moving any compatible replica there unblocks the placement.
        """
        spare = [name for name, cores in free_cores.items() if cores > 0]
        for donor_host in sorted(free_cores):
            if donor_host in used_hosts:
                continue
            for replica_id, host_name in sorted(assignment.items()):
                if host_name != donor_host:
                    continue
                sibling_hosts = {
                    assignment.get(ReplicaId(replica_id.pe, j))
                    for j in range(replication_factor)
                    if j != replica_id.replica
                }
                for refuge in spare:
                    if refuge == donor_host or refuge in sibling_hosts:
                        continue
                    assignment[replica_id] = refuge
                    load[donor_host] -= loads_by_pe[replica_id.pe]
                    load[refuge] += loads_by_pe[replica_id.pe]
                    free_cores[refuge] -= 1
                    free_cores[donor_host] += 1
                    return donor_host
        raise DeploymentError(
            f"no host available for a replica of {pe!r}, and no"
            " relocation can free one"
        )

    for pe in pes:
        used_hosts: set[str] = set()
        for replica_index in range(replication_factor):
            candidates = [
                h.name
                for h in hosts
                if h.name not in used_hosts and free_cores[h.name] > 0
            ]
            if candidates:
                target = min(candidates, key=lambda name: (load[name], name))
            else:
                target = repair(pe, used_hosts)
            place(pe, replica_index, target)
            used_hosts.add(target)

    return ReplicatedDeployment(
        descriptor, hosts, assignment, replication_factor
    )
