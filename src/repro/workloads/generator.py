"""Synthetic stream application generator (Sec. 5.2).

Reproduces the paper's corpus construction: random DAGs with an average
outgoing node degree between 1.5 and 3, port selectivities uniform in
[0.5, 1.5], a single external source with two rates ("Low" and "High"),
and per-tuple CPU costs calibrated so that

(i)  the deployment is **not** overloaded when all replicas are active and
     the input configuration is Low, and
(ii) it **is** overloaded when all replicas are active and the input is
     High.

Two deliberate deviations from the paper, recorded in DESIGN.md:

* the High/Low rate ratio is rejection-sampled into a band where the
  calibration above is achievable *and* a single-replica deployment can
  still absorb High (so the NR/GRD/LAAR variants have room to operate) —
  the paper achieves the same effect implicitly through its cost sampling;
* a total-throughput budget rejects applications whose internal tuple
  rates explode through fan-out, keeping discrete-event simulation cheap
  on a laptop. The paper's cluster absorbed such applications by brute
  force.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.baselines import greedy_deactivation
from repro.core.deployment import Host, ReplicatedDeployment
from repro.core.descriptor import ApplicationDescriptor, EdgeProfile
from repro.core.application import ApplicationGraph
from repro.core.configurations import ConfigurationSpace
from repro.errors import DeploymentError, OptimizationError, WorkloadError
from repro.placement import balanced_placement

__all__ = [
    "GeneratorParams",
    "ClusterParams",
    "GeneratedApplication",
    "generate_application",
    "generate_corpus",
]


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic application generator."""

    n_pes: int = 24
    degree_range: tuple[float, float] = (1.5, 3.0)
    selectivity_range: tuple[float, float] = (0.5, 1.5)
    low_rate_range: tuple[float, float] = (1.0, 20.0)
    rate_ratio_range: tuple[float, float] = (1.3, 2.1)
    low_probability: float = 2.0 / 3.0
    low_utilization: float = 0.85
    tuple_budget: float = 500.0
    max_attempts: int = 80

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise WorkloadError("n_pes must be >= 1")
        if not 0.0 < self.low_probability < 1.0:
            raise WorkloadError("low_probability must be in (0, 1)")
        if not 0.0 < self.low_utilization < 1.0:
            raise WorkloadError("low_utilization must be in (0, 1)")
        if self.rate_ratio_range[0] <= 1.0:
            raise WorkloadError("High rate must exceed Low (ratio > 1)")
        if self.max_attempts < 1:
            raise WorkloadError("max_attempts must be >= 1")


@dataclass(frozen=True)
class ClusterParams:
    """The deployment cluster the application is generated for.

    The defaults model a scaled version of the paper's testbed: 24 PEs
    replicated twice over four 12-slot hosts (one replica per logical
    core).
    """

    n_hosts: int = 4
    cores_per_host: int = 12
    cycles_per_core: float = 1.0e9
    replication_factor: int = 2

    def hosts(self) -> list[Host]:
        return [
            Host(
                f"host{i}",
                cores=self.cores_per_host,
                cycles_per_core=self.cycles_per_core,
            )
            for i in range(self.n_hosts)
        ]


@dataclass
class GeneratedApplication:
    """A calibrated application with its replicated deployment."""

    name: str
    descriptor: ApplicationDescriptor
    deployment: ReplicatedDeployment
    low_rate: float
    high_rate: float
    target_degree: float
    seed: int
    attempts: int
    metadata: dict = field(default_factory=dict)


def _random_graph(
    rng: random.Random, params: GeneratorParams
) -> tuple[ApplicationGraph, float]:
    """A random single-source single-sink DAG over ``n_pes`` PEs."""
    n = params.n_pes
    pes = [f"pe{i:02d}" for i in range(n)]
    target_degree = rng.uniform(*params.degree_range)

    edges: set[tuple[str, str]] = set()
    # Roots read from the external source; every later PE connects to a
    # random earlier PE, which keeps the graph a connected DAG.
    n_roots = max(1, round(n / 8))
    for i in range(n_roots):
        edges.add(("src", pes[i]))
    for i in range(n_roots, n):
        edges.add((pes[rng.randrange(i)], pes[i]))

    # Extra forward edges until the average out-degree over the PEs and
    # the source hits the target.
    edge_target = round(target_degree * (n + 1))
    candidates = [
        (pes[i], pes[j]) for i in range(n) for j in range(i + 1, n)
    ]
    rng.shuffle(candidates)
    for tail, head in candidates:
        if len(edges) >= edge_target:
            break
        edges.add((tail, head))

    leaves = {pe for pe in pes} - {tail for tail, _ in edges}
    for leaf in sorted(leaves):
        edges.add((leaf, "sink"))

    graph = ApplicationGraph.build(["src"], pes, ["sink"], sorted(edges))
    return graph, target_degree


def _attempt(
    rng: random.Random,
    params: GeneratorParams,
    cluster: ClusterParams,
    name: str,
    seed: int,
    attempts: int,
) -> Optional[GeneratedApplication]:
    graph, target_degree = _random_graph(rng, params)

    profiles = {}
    for edge in graph.edges:
        if graph.kind(edge.head).value != "pe":
            continue
        profiles[(edge.tail, edge.head)] = EdgeProfile(
            selectivity=rng.uniform(*params.selectivity_range),
            cpu_cost=rng.uniform(1.0, 10.0),  # rescaled below
        )

    # The graph's throughput amplification: total PE input tuples/s per
    # unit of source rate (selectivities fix it, rates scale linearly).
    probe_space = ConfigurationSpace.two_level(
        "src", 1.0, 2.0, params.low_probability
    )
    probe = ApplicationDescriptor(graph, profiles, probe_space, name=name)
    amplification = probe.rate_table.total_pe_input_rate(0)  # per 1 t/s
    if amplification <= 0:
        return None

    # Sample rates inside both the paper's U(1, 20) band and the
    # simulation throughput budget (documented deviation).
    ratio = rng.uniform(*params.rate_ratio_range)
    low_min, low_max = params.low_rate_range
    budget_cap = params.tuple_budget / (amplification * ratio)
    effective_max = min(low_max, budget_cap)
    if effective_max < low_min:
        return None  # fan-out too explosive even at the minimum rate
    low_rate = rng.uniform(low_min, effective_max)
    high_rate = low_rate * ratio
    space = ConfigurationSpace.two_level(
        "src", low_rate, high_rate, params.low_probability
    )
    descriptor = ApplicationDescriptor(graph, profiles, space, name=name)
    high_config = 1  # two_level puts High at index 1

    hosts = cluster.hosts()
    deployment = balanced_placement(
        descriptor, hosts, cluster.replication_factor
    )

    # Calibrate costs: scale every gamma so the most loaded host sits at
    # ``low_utilization`` of its capacity in Low with all replicas active.
    max_low_load = max(
        deployment.host_load(host.name, 0) for host in hosts
    )
    if max_low_load <= 0:
        return None
    scale = params.low_utilization * hosts[0].capacity / max_low_load
    profiles = {
        key: EdgeProfile(p.selectivity, p.cpu_cost * scale)
        for key, p in profiles.items()
    }
    descriptor = ApplicationDescriptor(graph, profiles, space, name=name)
    deployment = balanced_placement(
        descriptor, hosts, cluster.replication_factor
    )

    # Paper's condition (ii): High with all replicas active overloads.
    if not deployment.is_overloaded(high_config):
        return None
    # Condition (i) restated after rescaling (guaranteed by construction,
    # checked defensively).
    if deployment.is_overloaded(0):
        return None
    # The dynamic variants need room to act: greedy deactivation must be
    # able to de-overload every configuration.
    try:
        greedy_deactivation(deployment)
    except OptimizationError:
        return None

    return GeneratedApplication(
        name=name,
        descriptor=descriptor,
        deployment=deployment,
        low_rate=low_rate,
        high_rate=high_rate,
        target_degree=target_degree,
        seed=seed,
        attempts=attempts,
    )


def generate_application(
    seed: int,
    params: GeneratorParams | None = None,
    cluster: ClusterParams | None = None,
    name: Optional[str] = None,
) -> GeneratedApplication:
    """Generate one calibrated application (deterministic in ``seed``)."""
    params = params or GeneratorParams()
    cluster = cluster or ClusterParams()
    app_name = name or f"app-{seed}"
    rng = random.Random(seed)
    for attempt in range(1, params.max_attempts + 1):
        try:
            generated = _attempt(
                rng, params, cluster, app_name, seed, attempt
            )
        except DeploymentError:
            # Anti-affinity placement can dead-end on tight slot counts;
            # treat it like any other failed attempt and resample.
            generated = None
        if generated is not None:
            return generated
    raise WorkloadError(
        f"could not generate a calibrated application from seed {seed}"
        f" within {params.max_attempts} attempts"
    )


def generate_corpus(
    count: int,
    base_seed: int = 0,
    params: GeneratorParams | None = None,
    cluster: ClusterParams | None = None,
) -> list[GeneratedApplication]:
    """A corpus of ``count`` applications with distinct seeds."""
    if count < 1:
        raise WorkloadError("corpus size must be >= 1")
    return [
        generate_application(
            base_seed + index,
            params=params,
            cluster=cluster,
            name=f"app-{base_seed + index:03d}",
        )
        for index in range(count)
    ]
