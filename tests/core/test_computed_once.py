"""The immutable core model answers from tables built once.

`ApplicationGraph`, `ReplicatedDeployment` and `RateTable` store their
derived structure at construction and hand out the stored object. The
oracles below are the expressions the accessors used to evaluate on
every call (scan, sort, re-sum from the inputs); each table must equal
its oracle on generated applications and drawn deployments, and two
reads must return the identical object.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApplicationGraph,
    Component,
    ComponentKind,
    Edge,
    Host,
    OptimizationProblem,
    RateTable,
    ReplicaId,
    ReplicatedDeployment,
    expected_rates,
)
from tests.support import random_descriptor

SEEDS = st.integers(min_value=0, max_value=100_000)


def drawn_graph(rng: random.Random):
    """A layered DAG with several sources and sinks, components and
    edges in shuffled order so no table can lean on input order."""
    n_sources, n_pes, n_sinks = (rng.randint(1, 3) for _ in range(3))
    sources = [f"s{rng.randrange(100):02d}-{i}" for i in range(n_sources)]
    pes = [f"p{rng.randrange(100):02d}-{i}" for i in range(n_pes)]
    sinks = [f"o{rng.randrange(100):02d}-{i}" for i in range(n_sinks)]
    edges = {(rng.choice(sources), pes[0])}
    for i in range(1, n_pes):
        edges.add((rng.choice(sources + pes[:i]), pes[i]))
    for source in sources:
        edges.add((source, rng.choice(pes)))
    for i, pe in enumerate(pes):
        if i + 1 < n_pes and rng.random() < 0.5:
            edges.add((pe, rng.choice(pes[i + 1:])))
        if i + 1 == n_pes or rng.random() < 0.4:
            edges.add((pe, rng.choice(sinks)))
    for sink in sinks:
        edges.add((rng.choice(pes), sink))
    have_out = {tail for tail, _ in edges}
    edges.update((pe, sinks[0]) for pe in pes if pe not in have_out)
    components = (
        [Component(n, ComponentKind.SOURCE) for n in sources]
        + [Component(n, ComponentKind.PE) for n in pes]
        + [Component(n, ComponentKind.SINK) for n in sinks]
    )
    rng.shuffle(components)
    edge_list = [Edge(t, h) for t, h in sorted(edges)]
    rng.shuffle(edge_list)
    return components, edge_list


def drawn_assignment(rng: random.Random, descriptor):
    """``(hosts, assignment, k)``: a random anti-affine assignment, hosts
    and replicas in shuffled order."""
    k = rng.randint(1, 3)
    n_hosts = rng.randint(k, k + 2)
    hosts = [
        Host(f"h{rng.randrange(100):02d}-{i}", cores=rng.randint(1, 8))
        for i in range(n_hosts)
    ]
    items = [
        (ReplicaId(pe, j), host.name)
        for pe in descriptor.graph.pes
        for j, host in enumerate(rng.sample(hosts, k))
    ]
    rng.shuffle(items)
    return hosts, dict(items), k


def drawn_deployment(rng: random.Random, descriptor) -> ReplicatedDeployment:
    return ReplicatedDeployment(descriptor, *drawn_assignment(rng, descriptor))


class TestGraphTables:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_every_table_equals_its_oracle(self, seed):
        components, edges = drawn_graph(random.Random(seed))
        graph = ApplicationGraph(components, edges)
        by_name = {c.name: c for c in components}

        assert dict(graph.components) == by_name
        assert list(graph.components) == [c.name for c in components]
        assert graph.edges == tuple(edges)
        assert graph.sources == tuple(
            sorted(n for n, c in by_name.items() if c.is_source)
        )
        assert graph.pes == tuple(
            n for n in graph.topological_order if by_name[n].is_pe
        )
        assert graph.sinks == tuple(
            sorted(n for n, c in by_name.items() if c.is_sink)
        )
        for name in by_name:
            preds = tuple(e.tail for e in edges if e.head == name)
            assert graph.pred(name) == preds
            assert graph.succ(name) == tuple(
                e.head for e in edges if e.tail == name
            )
            if by_name[name].is_pe:
                assert graph.pe_input_edges(name) == tuple(
                    Edge(p, name) for p in preds
                )

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_two_reads_return_the_identical_object(self, seed):
        graph = ApplicationGraph(*drawn_graph(random.Random(seed)))
        for read in (
            lambda: graph.components,
            lambda: graph.edges,
            lambda: graph.sources,
            lambda: graph.pes,
            lambda: graph.sinks,
            lambda: graph.topological_order,
        ):
            assert read() is read()
        for name in graph.components:
            assert graph.pred(name) is graph.pred(name)
            assert graph.succ(name) is graph.succ(name)
        for pe in graph.pes:
            assert graph.pe_input_edges(pe) is graph.pe_input_edges(pe)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_pickle_rebuilds_equal_tables(self, seed):
        graph = ApplicationGraph(*drawn_graph(random.Random(seed)))
        copy = pickle.loads(pickle.dumps(graph))
        assert dict(copy.components) == dict(graph.components)
        assert list(copy.components) == list(graph.components)
        assert copy.edges == graph.edges
        assert copy.topological_order == graph.topological_order
        assert (copy.sources, copy.pes, copy.sinks) == (
            graph.sources,
            graph.pes,
            graph.sinks,
        )
        for pe in graph.pes:
            assert copy.pe_input_edges(pe) == graph.pe_input_edges(pe)


class TestDeploymentTables:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_every_table_equals_its_oracle(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=rng.randint(2, 6))
        host_list, assignment, k = drawn_assignment(rng, descriptor)
        deployment = ReplicatedDeployment(descriptor, host_list, assignment, k)
        hosts = {host.name: host for host in host_list}

        assert deployment.host_names == tuple(sorted(hosts))
        assert deployment.hosts == tuple(
            hosts[name] for name in sorted(hosts)
        )
        order = {pe: i for i, pe in enumerate(descriptor.graph.pes)}
        assert deployment.replicas == tuple(
            sorted(assignment, key=lambda r: (order[r.pe], r.replica))
        )
        assert tuple(deployment) == deployment.replicas
        for pe in descriptor.graph.pes:
            assert deployment.replicas_of(pe) == tuple(
                ReplicaId(pe, j) for j in range(k)
            )
        for name in hosts:
            assert deployment.replicas_on(name) == tuple(
                sorted(r for r, h in assignment.items() if h == name)
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_two_reads_return_the_identical_object(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=rng.randint(2, 6))
        deployment = drawn_deployment(rng, descriptor)
        assert deployment.hosts is deployment.hosts
        assert deployment.host_names is deployment.host_names
        assert deployment.replicas is deployment.replicas
        for pe in descriptor.graph.pes:
            assert deployment.replicas_of(pe) is deployment.replicas_of(pe)
        for name in deployment.host_names:
            assert deployment.replicas_on(name) is deployment.replicas_on(name)


class TestRateTableRows:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_every_row_equals_the_resummed_value(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(
            rng, n_pes=rng.randint(2, 7), n_configs=rng.randint(2, 4)
        )
        graph = descriptor.graph
        table = descriptor.rate_table
        rates = expected_rates(descriptor)
        for name in graph.components:
            assert table.rates_of(name) == rates[name]
        # Exact equality throughout: a row holds the same expression
        # the accessor used to evaluate, summed in the same order.
        for c in range(len(descriptor.configuration_space)):
            for pe in graph.pes:
                edges = graph.pe_input_edges(pe)
                assert table.pe_input_rate(pe, c) == sum(
                    rates[edge.tail][c] for edge in edges
                )
                load = sum(
                    descriptor.cpu_cost(edge.tail, pe) * rates[edge.tail][c]
                    for edge in edges
                )
                assert table.replica_load(pe, c) == load
                assert descriptor.pe_cycles_per_second(pe, c) == load
            assert table.total_pe_input_rate(c) == sum(
                table.pe_input_rate(pe, c) for pe in graph.pes
            )
        matrix, pes = table.replica_load_matrix()
        assert pes == graph.pes
        assert matrix.tolist() == [
            [table.replica_load(pe, c) for c in range(table.n_configs)]
            for pe in pes
        ]

    def test_one_table_per_descriptor(self):
        descriptor = random_descriptor(random.Random(5))
        table = descriptor.rate_table
        assert isinstance(table, RateTable)
        assert descriptor.rate_table is table
        assert table.rates_of("src") is table.rates_of("src")


class TestPickle:
    """Workers receive the inputs and the stored tuples, never a table
    that was built lazily on the sending side."""

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_round_trip_with_equal_accessors(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=rng.randint(2, 6))
        deployment = drawn_deployment(rng, descriptor)
        problem = OptimizationProblem(deployment, ic_target=0.5)
        cold = pickle.dumps(problem)
        table = descriptor.rate_table  # builds the lazy table
        warm = pickle.dumps(problem)
        assert warm == cold

        copy = pickle.loads(warm).deployment
        assert copy.to_dict() == deployment.to_dict()
        assert copy.hosts == deployment.hosts
        assert copy.host_names == deployment.host_names
        assert copy.replicas == deployment.replicas
        for pe in descriptor.graph.pes:
            assert copy.replicas_of(pe) == deployment.replicas_of(pe)
        for name in deployment.host_names:
            assert copy.replicas_on(name) == deployment.replicas_on(name)
        assert copy.descriptor.to_dict() == descriptor.to_dict()
        rebuilt = copy.descriptor.rate_table
        assert rebuilt is not table
        held = pickle.loads(pickle.dumps(table))  # a table held directly
        for name in descriptor.graph.components:
            assert rebuilt.rates_of(name) == table.rates_of(name)
        for pe in descriptor.graph.pes:
            assert rebuilt.replica_load(pe, 1) == table.replica_load(pe, 1)
            assert held.replica_load(pe, 1) == table.replica_load(pe, 1)
