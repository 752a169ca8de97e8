"""Communication-aware replicated placement.

The paper's testbed deploys PEs "on the available servers to minimize
inter-host communication" (Sec. 5.2, in the spirit of COLA [21]). This
module implements that objective over replicated assignments: starting
from the balanced LPT placement, a deterministic first-improvement local
search relocates and swaps replicas to reduce the expected inter-host
tuple traffic, subject to

* anti-affinity (replicas of a PE stay on distinct hosts),
* core slots (at most one replica per core), and
* load safety (no host's per-configuration load may exceed the starting
  placement's worst host by more than ``load_tolerance``) — communication
  savings must not create new Eq. 11 pressure.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.deployment import Host, ReplicaId, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor
from repro.errors import DeploymentError
from repro.placement.algorithms import balanced_placement

__all__ = [
    "expected_traffic",
    "deployment_traffic",
    "communication_aware_placement",
]


def expected_traffic(
    descriptor: ApplicationDescriptor,
) -> dict[tuple[str, str], float]:
    """Expected tuples/s on each PE -> PE edge (probability-weighted).

    The runtime fans every output tuple of a PE's primary to *all*
    replicas of each successor, so the per-(replica pair) traffic of edge
    (u, v) is the edge rate itself for every replica of v.
    """
    rate_table = descriptor.rate_table
    space = descriptor.configuration_space
    traffic = {}
    graph = descriptor.graph
    for pe in graph.pes:
        for edge in graph.pe_input_edges(pe):
            if edge.tail not in graph.pes:
                continue  # source links are external ingress
            traffic[(edge.tail, pe)] = sum(
                config.probability * rate_table.rate(edge.tail, config.index)
                for config in space
            )
    return traffic


def deployment_traffic(deployment: ReplicatedDeployment) -> float:
    """Expected inter-host tuples/s of a placement.

    Counts, for every PE edge (u, v) and every replica of v, the edge
    rate when the *sending* side (approximated as either replica of u
    with equal likelihood) sits on a different host.
    """
    traffic = expected_traffic(deployment.descriptor)
    k = deployment.replication_factor
    total = 0.0
    for (tail, head), rate in traffic.items():
        for receiver in deployment.replicas_of(head):
            receiver_host = deployment.host_of(receiver)
            for sender in deployment.replicas_of(tail):
                if deployment.host_of(sender) != receiver_host:
                    total += rate / k
    return total


def _max_loads(deployment: ReplicatedDeployment) -> list[float]:
    n_configs = len(deployment.descriptor.configuration_space)
    return [
        max(
            deployment.host_load(host, c)
            for host in deployment.host_names
        )
        for c in range(n_configs)
    ]


def communication_aware_placement(
    descriptor: ApplicationDescriptor,
    hosts: Sequence[Host],
    replication_factor: int = 2,
    load_tolerance: float = 0.10,
    max_passes: int = 4,
) -> ReplicatedDeployment:
    """Balanced placement refined to minimize inter-host traffic.

    Deterministic first-improvement local search over single-replica
    relocations and pairwise swaps. ``load_tolerance`` bounds how much
    the per-configuration worst host load may grow relative to the LPT
    starting point (0.10 = ten percent).
    """
    if load_tolerance < 0:
        raise DeploymentError("load_tolerance must be >= 0")
    if max_passes < 1:
        raise DeploymentError("max_passes must be >= 1")
    current = balanced_placement(descriptor, hosts, replication_factor)
    load_caps = [
        load * (1.0 + load_tolerance)
        for load in _max_loads(current)
    ]
    score = deployment_traffic(current)

    def admissible(candidate: ReplicatedDeployment) -> bool:
        candidate_loads = _max_loads(candidate)
        return all(
            load <= cap + 1e-9
            for load, cap in zip(candidate_loads, load_caps)
        )

    def rebuilt(assignment: dict[ReplicaId, str]) -> ReplicatedDeployment:
        return ReplicatedDeployment(
            descriptor, hosts, assignment, replication_factor
        )

    for _ in range(max_passes):
        improved = False
        assignment = {r: current.host_of(r) for r in current.replicas}
        free = {
            host.name: host.cores - len(current.replicas_on(host.name))
            for host in current.hosts
        }

        # Relocations.
        for replica in current.replicas:
            origin = assignment[replica]
            sibling_hosts = {
                assignment[other]
                for other in current.replicas_of(replica.pe)
                if other != replica
            }
            for host in current.host_names:
                if host == origin or host in sibling_hosts:
                    continue
                if free[host] < 1:
                    continue
                trial = dict(assignment)
                trial[replica] = host
                try:
                    candidate = rebuilt(trial)
                except DeploymentError:  # pragma: no cover - filtered above
                    continue
                candidate_score = deployment_traffic(candidate)
                if candidate_score < score - 1e-9 and admissible(candidate):
                    current = candidate
                    score = candidate_score
                    assignment = trial
                    free[origin] += 1
                    free[host] -= 1
                    improved = True

        # Pairwise swaps (allow moves when no free slots exist).
        replicas = list(current.replicas)
        for i, first in enumerate(replicas):
            for second in replicas[i + 1 :]:
                host_a = assignment[first]
                host_b = assignment[second]
                if host_a == host_b or first.pe == second.pe:
                    continue
                trial = dict(assignment)
                trial[first], trial[second] = host_b, host_a
                try:
                    candidate = rebuilt(trial)
                except DeploymentError:
                    continue  # would break anti-affinity
                candidate_score = deployment_traffic(candidate)
                if candidate_score < score - 1e-9 and admissible(candidate):
                    current = candidate
                    score = candidate_score
                    assignment = trial
                    improved = True
        if not improved:
            break
    return current
