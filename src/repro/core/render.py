"""Human-readable renderings of core model objects.

Small text renderers used by the CLI and by example scripts: the
activation matrix of a strategy (PE rows, configuration columns) and a
host-load table against Eq. 11 capacities.
"""

from __future__ import annotations

from repro.core.cost import host_load_table
from repro.core.strategy import ActivationStrategy

__all__ = ["strategy_table", "host_load_report"]


def strategy_table(strategy: ActivationStrategy) -> str:
    """The activation matrix: one row per PE, one column per configuration.

    Cells show which replicas are active: ``01`` means replica 0 inactive
    and replica 1 active, ``11`` full replication, and so on.
    """
    deployment = strategy.deployment
    space = deployment.descriptor.configuration_space
    headers = [
        config.label or f"c{config.index}" for config in space
    ]
    pe_width = max(
        [len("PE")] + [len(pe) for pe in deployment.descriptor.graph.pes]
    )
    column_width = max([2] + [len(h) for h in headers])

    lines = [
        " ".join(
            ["PE".ljust(pe_width)]
            + [h.rjust(column_width) for h in headers]
        )
    ]
    for pe in deployment.descriptor.graph.pes:
        cells = []
        for config in space:
            bits = "".join(
                "1" if strategy.is_active(replica, config.index) else "0"
                for replica in deployment.replicas_of(pe)
            )
            cells.append(bits.rjust(column_width))
        lines.append(" ".join([pe.ljust(pe_width)] + cells))
    return "\n".join(lines)


def host_load_report(strategy: ActivationStrategy) -> str:
    """Per-(host, configuration) load as a fraction of capacity (Eq. 11)."""
    deployment = strategy.deployment
    loads = host_load_table(strategy)
    space = deployment.descriptor.configuration_space
    headers = [config.label or f"c{config.index}" for config in space]
    host_width = max(
        [len("host")] + [len(h) for h in deployment.host_names]
    )
    column_width = max([6] + [len(h) for h in headers])

    lines = [
        " ".join(
            ["host".ljust(host_width)]
            + [h.rjust(column_width) for h in headers]
        )
    ]
    for host in deployment.host_names:
        capacity = deployment.host(host).capacity
        cells = []
        for config in space:
            fraction = loads[(host, config.index)] / capacity
            marker = "!" if fraction >= 1.0 else ""
            cells.append(f"{fraction:.2f}{marker}".rjust(column_width))
        lines.append(" ".join([host.ljust(host_width)] + cells))
    return "\n".join(lines)
