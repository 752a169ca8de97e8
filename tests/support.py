"""Test helpers: random model builders shared by unit and property tests.

Not a pytest plugin — plain functions imported by test modules. The
random builders use an explicit :class:`random.Random` so hypothesis can
drive them through integer seeds while examples stay reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from repro.core import (
    ActivationStrategy,
    ApplicationDescriptor,
    ApplicationGraph,
    ConfigurationSpace,
    EdgeProfile,
    Host,
    ReplicaId,
    ReplicatedDeployment,
)
from repro.placement import balanced_placement

GIGA = 1.0e9


def random_descriptor(
    rng: random.Random,
    n_pes: int = 4,
    n_configs: int = 2,
    max_extra_edges: int = 3,
) -> ApplicationDescriptor:
    """A random small application with a single source and sink.

    The graph is a random chain through all PEs (guaranteeing every PE is
    connected) plus up to ``max_extra_edges`` random forward edges; PEs
    with no successor are wired to the sink.
    """
    pes = [f"pe{i}" for i in range(n_pes)]
    edges: set[tuple[str, str]] = {("src", pes[0])}
    for i in range(1, n_pes):
        # Connect each PE to a random earlier PE (keeps the DAG property).
        tail = pes[rng.randrange(i)]
        edges.add((tail, pes[i]))
    for _ in range(rng.randrange(max_extra_edges + 1)):
        i, j = sorted(rng.sample(range(n_pes), 2))
        edges.add((pes[i], pes[j]))
    heads_with_out = {tail for tail, _ in edges}
    for pe in pes:
        if pe not in heads_with_out:
            edges.add((pe, "sink"))

    graph = ApplicationGraph.build(["src"], pes, ["sink"], sorted(edges))

    profiles = {}
    # Sorted: set order follows PYTHONHASHSEED, and the draws below must
    # land on the same edges in every process.
    for tail, head in sorted(edges):
        if head == "sink":
            continue
        profiles[(tail, head)] = EdgeProfile(
            selectivity=rng.uniform(0.5, 1.5),
            cpu_cost=rng.uniform(0.005, 0.05) * GIGA,
        )

    if n_configs == 2:
        low = rng.uniform(1.0, 10.0)
        space = ConfigurationSpace.two_level(
            "src", low, low * rng.uniform(1.5, 2.5), rng.uniform(0.5, 0.9)
        )
    else:
        rates = sorted(rng.uniform(1.0, 20.0) for _ in range(n_configs))
        weights = [rng.uniform(0.1, 1.0) for _ in range(n_configs)]
        total = sum(weights)
        space = ConfigurationSpace.from_source_rates(
            {"src": [(r, w / total) for r, w in zip(rates, weights)]}
        )
    return ApplicationDescriptor(graph, profiles, space, name="random")


def random_deployment(
    rng: random.Random,
    descriptor: ApplicationDescriptor,
    n_hosts: int = 2,
    headroom: float = 1.2,
) -> ReplicatedDeployment:
    """A balanced deployment sized so full replication in the *least*
    loaded configuration fits with ``headroom`` slack.

    This keeps random problems in the interesting regime: feasible for at
    least some strategies without being trivially over-provisioned.
    """
    from repro.core import RateTable

    rate_table = RateTable(descriptor)
    n_pes = len(descriptor.graph.pes)
    n_configs = len(descriptor.configuration_space)
    min_total = min(
        sum(
            rate_table.replica_load(pe, c) for pe in descriptor.graph.pes
        )
        for c in range(n_configs)
    )
    cores = max(1, -(-2 * n_pes // n_hosts))  # ceil division
    per_core = headroom * 2 * min_total / (n_hosts * cores)
    per_core = max(per_core, 1.0)
    hosts = [
        Host(f"h{i}", cores=cores, cycles_per_core=per_core)
        for i in range(n_hosts)
    ]
    return balanced_placement(descriptor, hosts, replication_factor=2)


def enumerate_strategies(
    deployment: ReplicatedDeployment,
) -> Sequence[ActivationStrategy]:
    """All 3^(|P|*|C|) valid activation strategies (small problems only)."""
    pes = deployment.descriptor.graph.pes
    n_configs = len(deployment.descriptor.configuration_space)
    cells = [(pe, c) for pe in pes for c in range(n_configs)]
    values = [(True, True), (True, False), (False, True)]
    strategies = []
    for combo in itertools.product(values, repeat=len(cells)):
        activations = {}
        for (pe, c), (a0, a1) in zip(cells, combo):
            activations[(ReplicaId(pe, 0), c)] = a0
            activations[(ReplicaId(pe, 1), c)] = a1
        strategies.append(ActivationStrategy(deployment, activations))
    return strategies


def live_heap(env) -> list[tuple[float, int]]:
    """The ``(time, seq)`` of every live event on a kernel's heap."""
    return sorted(
        (time, seq) for time, seq, handle in env._queue
        if not handle.cancelled
    )
