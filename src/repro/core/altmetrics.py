"""Alternative completeness metrics (Sec. 4.3's rejected candidates).

The paper chooses internal completeness over "other possible metrics
(e.g., output completeness or average replication factor)" because IC also
captures the divergence of *internal* PE state, not just what reaches the
sinks. Implementing the alternatives makes the comparison concrete:

* **output completeness** — the fraction of tuples reaching the data
  sinks under the failure model, relative to the failure-free count. It
  ignores internal state divergence: a failure wiping a PE that only
  feeds low-selectivity branches barely moves it.
* **average replication factor** — the expected number of active replicas
  per PE, probability-weighted over the configuration space. It measures
  resource redundancy, not information loss: it is blind to *which* PEs
  are replicated (upstream PEs shield their whole downstream subgraph).
"""

from __future__ import annotations

from repro.core.ic import failure_aware_rates, pessimistic_phi
from repro.core.strategy import ActivationStrategy
from repro.errors import ModelError

__all__ = ["output_completeness", "average_replication_factor"]


def output_completeness(strategy: ActivationStrategy) -> float:
    """Expected sink arrivals under Eq. 14 / without failures.

    Both numerator and denominator are probability-weighted over the
    configuration space (like Eq. 5/6, but summed at the sinks).
    """
    deployment = strategy.deployment
    descriptor = deployment.descriptor
    rate_table = descriptor.rate_table
    graph = descriptor.graph

    expected = 0.0
    baseline = 0.0
    for config in descriptor.configuration_space:
        c = config.index
        delta_hat, _ = failure_aware_rates(
            deployment, c, pessimistic_phi(strategy, c)
        )
        for sink in graph.sinks:
            expected += config.probability * delta_hat[sink]
            baseline += config.probability * rate_table.rate(sink, c)
    if baseline == 0.0:
        raise ModelError(
            "no tuples ever reach the sinks: output completeness undefined"
        )
    return expected / baseline


def average_replication_factor(strategy: ActivationStrategy) -> float:
    """Mean active replicas per PE, weighted by configuration probability.

    Ranges from 1.0 (Eq. 12's minimum) to the deployment's replication
    factor k (static replication).
    """
    deployment = strategy.deployment
    space = deployment.descriptor.configuration_space
    pes = deployment.descriptor.graph.pes
    if not pes:
        raise ModelError("application has no PEs")
    total = 0.0
    for config in space:
        for pe in pes:
            total += config.probability * strategy.active_count(
                pe, config.index
            )
    return total / len(pes)
