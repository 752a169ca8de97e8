"""Baseline replication variants: NR, SR, and GRD (Sec. 5.2).

These are the three non-LAAR variants the evaluation compares against:

* **SR** — static active replication: both replicas of every PE are active
  all the time, regardless of the input configuration.
* **NR** — non-replicated: derived from the LAAR L.5 strategy by taking its
  activations for the "High" input configuration and reducing them so that
  only one replica of each PE is ever active; the result is used in every
  configuration. (This is the paper's recipe for quickly obtaining a
  never-overloaded single-replica deployment spread over the cluster.)
* **GRD** — greedy dynamic deactivation: starting from static replication,
  for every configuration, redundant replicas are iteratively disabled
  until no host is overloaded; each iteration picks an overloaded host and
  deactivates the most CPU-hungry redundant replica on it, preferring
  upstream PEs first.
"""

from __future__ import annotations

from repro.core.deployment import ReplicaId, ReplicatedDeployment
from repro.core.strategy import ActivationStrategy
from repro.errors import OptimizationError

__all__ = [
    "static_replication",
    "non_replicated",
    "greedy_deactivation",
]


def static_replication(
    deployment: ReplicatedDeployment, name: str = "SR"
) -> ActivationStrategy:
    """The SR variant: every replica active in every configuration."""
    return ActivationStrategy.all_active(deployment, name=name)


def non_replicated(
    reference: ActivationStrategy,
    high_config_index: int,
    name: str = "NR",
) -> ActivationStrategy:
    """The NR variant, derived from a LAAR strategy per Sec. 5.2.

    Takes ``reference``'s activations in the ``high_config_index``
    configuration; for each PE keeps exactly one active replica (the
    lowest-indexed active one — when the reference keeps both active in
    High, which is "usually just a few" PEs, replica 0 is kept). The
    resulting single-replica activation is used for *all* configurations.
    """
    deployment = reference.deployment
    chosen: dict[str, int] = {}
    for pe in deployment.descriptor.graph.pes:
        active = [
            replica.replica
            for replica in deployment.replicas_of(pe)
            if reference.is_active(replica, high_config_index)
        ]
        if not active:
            raise OptimizationError(
                f"reference strategy has no active replica of {pe!r} in"
                f" configuration {high_config_index}"
            )
        chosen[pe] = min(active)
    return ActivationStrategy.single_replica(deployment, chosen, name=name)


def greedy_deactivation(
    deployment: ReplicatedDeployment,
    name: str = "GRD",
) -> ActivationStrategy:
    """The GRD variant: greedy per-configuration replica deactivation.

    Algorithm (Sec. 5.2): start from static active replication; for every
    input configuration, while some host is overloaded, pick an overloaded
    host and deactivate the replica on it that consumes the most CPU,
    among replicas whose PE still has two active replicas in this
    configuration. A simple heuristic prefers deactivating upstream PEs
    first (smaller graph depth wins; CPU consumption breaks ties).

    Raises
    ------
    OptimizationError
        If some host stays overloaded even with a single replica of each
        of its PEs active — no greedy deactivation can fix that.
    """
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    graph = descriptor.graph
    n_configs = len(descriptor.configuration_space)
    depth = {pe: graph.depth_of(pe) for pe in graph.pes}

    activations: dict[tuple[ReplicaId, int], bool] = {
        (replica, c): True
        for replica in deployment.replicas
        for c in range(n_configs)
    }

    for c in range(n_configs):
        while True:
            active = {
                replica: activations[(replica, c)]
                for replica in deployment.replicas
            }
            overloaded = deployment.overloaded_hosts(c, active)
            if not overloaded:
                break
            # Choose the most overloaded host (largest absolute excess).
            def excess(host_name: str) -> float:
                load = deployment.host_load(host_name, c, active)
                return load - deployment.host(host_name).capacity

            host_name = max(overloaded, key=lambda h: (excess(h), h))

            candidates = [
                replica
                for replica in deployment.replicas_on(host_name)
                if activations[(replica, c)]
                and _active_count(deployment, activations, replica.pe, c) > 1
            ]
            if not candidates:
                raise OptimizationError(
                    f"greedy deactivation stuck: host {host_name!r} is"
                    f" overloaded in configuration {c} but has no redundant"
                    " replica left to deactivate"
                )
            # Upstream PEs first, then the most CPU-hungry replica.
            victim = min(
                candidates,
                key=lambda replica: (
                    depth[replica.pe],
                    -rate_table.replica_load(replica.pe, c),
                    replica.pe,
                    replica.replica,
                ),
            )
            activations[(victim, c)] = False

    return ActivationStrategy(deployment, activations, name=name)


def _active_count(
    deployment: ReplicatedDeployment,
    activations: dict[tuple[ReplicaId, int], bool],
    pe: str,
    config_index: int,
) -> int:
    return sum(
        1
        for replica in deployment.replicas_of(pe)
        if activations[(replica, config_index)]
    )
