"""Expected output rates Delta(x, c) under the linear load model.

Section 4.2: the output rate of a data source in configuration ``c`` is
given by the descriptor; the expected output rate of a PE is, by the linear
model (footnote 2), the selectivity-weighted sum of its predecessors' rates:

    Delta(x_i, c) = sum_{x_j in pred(x_i)} delta(x_j, x_i) * Delta(x_j, c)

These are the *failure-free* rates used by the cost model (Eq. 13) and the
CPU constraint (Eq. 11). The failure-aware counterpart Delta-hat lives in
:mod:`repro.core.ic`.
"""

from __future__ import annotations

import numpy as np

from repro.core.descriptor import ApplicationDescriptor

__all__ = ["expected_rates", "RateTable"]


def expected_rates(
    descriptor: ApplicationDescriptor,
) -> dict[str, tuple[float, ...]]:
    """Compute Delta(x, c) for every component and configuration.

    Returns a mapping from component name to a tuple of rates indexed by
    configuration index. Sinks are included (their "rate" is the combined
    arrival rate of tuples at the sink, useful for output-rate metrics).
    """
    graph = descriptor.graph
    space = descriptor.configuration_space
    n_configs = len(space)
    rates: dict[str, list[float]] = {}

    for name in graph.topological_order:
        component = graph.components[name]
        if component.is_source:
            rates[name] = [space[c].rate_of(name) for c in range(n_configs)]
        elif component.is_pe:
            row = [0.0] * n_configs
            for edge in graph.pe_input_edges(name):
                selectivity = descriptor.selectivity(edge.tail, name)
                upstream = rates[edge.tail]
                for c in range(n_configs):
                    row[c] += selectivity * upstream[c]
            rates[name] = row
        else:  # sink: plain sum of incoming rates, no selectivity
            row = [0.0] * n_configs
            for pred in graph.pred(name):
                upstream = rates[pred]
                for c in range(n_configs):
                    row[c] += upstream[c]
            rates[name] = row

    return {name: tuple(row) for name, row in rates.items()}


class RateTable:
    """Delta(x, c) lookups plus derived per-PE load figures, as tables.

    Everything downstream of the descriptor (cost model, IC metric,
    optimizer, workload calibration, the simulator's port sizing) needs
    the same rate table, and a descriptor never changes: there is one
    table per descriptor, reached as ``descriptor.rate_table`` — do not
    construct another. The rates, the per-PE input-rate and load rows
    and the per-configuration totals are computed here, once; every
    method below is a lookup into them.
    """

    def __init__(self, descriptor: ApplicationDescriptor) -> None:
        # The graph, not the descriptor: the descriptor memoises this
        # table, and a link back would make every application a cycle.
        graph = self._graph = descriptor.graph
        rates = self._rates = expected_rates(descriptor)
        self._n_configs = len(descriptor.configuration_space)
        configs = range(self._n_configs)
        self._input_rates: dict[str, tuple[float, ...]] = {}
        self._loads: dict[str, tuple[float, ...]] = {}
        for pe in graph.pes:
            edges = graph.pe_input_edges(pe)
            self._input_rates[pe] = tuple(
                sum(rates[edge.tail][c] for edge in edges) for c in configs
            )
            self._loads[pe] = tuple(
                sum(
                    descriptor.cpu_cost(edge.tail, pe) * rates[edge.tail][c]
                    for edge in edges
                )
                for c in configs
            )
        self._total_input_rates = tuple(
            sum(self._input_rates[pe][c] for pe in graph.pes)
            for c in configs
        )

    @property
    def n_configs(self) -> int:
        return self._n_configs

    def rate(self, component: str, config_index: int) -> float:
        """Delta(component, c)."""
        return self._rates[component][config_index]

    def rates_of(self, component: str) -> tuple[float, ...]:
        return self._rates[component]

    def pe_input_rate(self, pe: str, config_index: int) -> float:
        """Total tuples/s arriving at one replica of ``pe`` in ``c``.

        This is the per-PE term of BIC (Eq. 5):
        sum_{x_j in pred(x_i)} Delta(x_j, c).
        """
        try:
            return self._input_rates[pe][config_index]
        except KeyError:
            # Not a PE: the graph words the typed error.
            self._graph.pe_input_edges(pe)
            raise

    def replica_load(self, pe: str, config_index: int) -> float:
        """CPU cycles/s one active replica of ``pe`` consumes in ``c``.

        The per-replica term of Eq. 11 and Eq. 13:
        sum_{x_j in pred(x_i)} gamma(x_j, x_i) * Delta(x_j, c).
        """
        try:
            return self._loads[pe][config_index]
        except KeyError:
            # Not a PE: the graph words the typed error.
            self._graph.pe_input_edges(pe)
            raise

    def replica_load_matrix(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Loads as an array of shape ``(n_pes, n_configs)``.

        Returns the matrix together with the PE order (topological) its
        rows follow. Used by the optimizer for fast bound computations.
        """
        pes = self._graph.pes
        matrix = np.array([self._loads[pe] for pe in pes], dtype=float)
        return matrix, pes

    def total_pe_input_rate(self, config_index: int) -> float:
        """Sum of ``pe_input_rate`` over all PEs (BIC integrand for ``c``)."""
        return self._total_input_rates[config_index]
