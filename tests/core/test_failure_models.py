"""Direct tests for the failure models of Sec. 4.3 / 4.4.

The :class:`IndependentFailureModel` (future-work item (i)) gets its
formula pinned here, together with its relationship to the pessimistic
model and to the damage-maximizing victim choice of
:func:`repro.chaos.injectors.pessimistic_victims`.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationStrategy,
    IndependentFailureModel,
    NoFailureModel,
    PessimisticFailureModel,
    ReplicaId,
)
from repro.chaos import pessimistic_victims
from repro.errors import ModelError


def partial_strategy(deployment, single_in_high):
    """All-active except ``single_in_high`` PEs, which run only replica
    0 in the High configuration (index 1)."""
    activations = {
        (replica, c): True
        for replica in deployment.replicas
        for c in range(2)
    }
    for pe in single_in_high:
        activations[(ReplicaId(pe, 1), 1)] = False
    return ActivationStrategy(deployment, activations)


class TestIndependentFormula:
    def test_phi_is_one_minus_dead_probability(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        model = IndependentFailureModel(0.9)
        # Two active replicas: phi = 1 - 0.1^2.
        assert model.phi("pe1", 0, strategy) == pytest.approx(0.99)

    def test_phi_scales_with_active_count(self, pipeline_deployment):
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        model = IndependentFailureModel(0.7)
        # pe1 runs a single replica in High: phi drops to a itself.
        assert model.phi("pe1", 1, strategy) == pytest.approx(0.7)
        assert model.phi("pe1", 0, strategy) == pytest.approx(0.91)

    def test_more_active_replicas_never_hurt(self, pipeline_deployment):
        single = partial_strategy(pipeline_deployment, ["pe1"])
        full = ActivationStrategy.all_active(pipeline_deployment)
        for availability in (0.1, 0.5, 0.9):
            model = IndependentFailureModel(availability)
            assert model.phi("pe1", 1, full) >= model.phi(
                "pe1", 1, single
            )

    def test_zero_active_means_zero_phi(self, pipeline_deployment):
        activations = {
            (replica, c): replica.pe != "pe1" or c != 1
            for replica in pipeline_deployment.replicas
            for c in range(2)
        }
        strategy = ActivationStrategy(
            pipeline_deployment, activations, require_one_active=False
        )
        assert IndependentFailureModel(0.99).phi("pe1", 1, strategy) == 0.0

    def test_extreme_availabilities(self, pipeline_deployment):
        strategy = partial_strategy(pipeline_deployment, ["pe2"])
        sure = IndependentFailureModel(1.0)
        never = IndependentFailureModel(0.0)
        none = NoFailureModel()
        for pe in ("pe1", "pe2"):
            for c in range(2):
                assert sure.phi(pe, c, strategy) == none.phi(
                    pe, c, strategy
                )
                assert never.phi(pe, c, strategy) == 0.0

    @pytest.mark.parametrize("availability", [-0.1, 1.5, 2.0])
    def test_rejects_out_of_range_availability(self, availability):
        with pytest.raises(ModelError, match=r"\[0, 1\]"):
            IndependentFailureModel(availability)

    def test_model_name(self):
        assert (
            IndependentFailureModel(0.5).name == "IndependentFailureModel"
        )


class TestAgainstPessimistic:
    """The independent model does not dominate Eq. 14 (nor vice versa)."""

    def test_full_replication_favors_pessimistic(
        self, pipeline_deployment
    ):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        pessimistic = PessimisticFailureModel()
        independent = IndependentFailureModel(0.6)
        # Eq. 14 rewards full replication with certainty; a lossy
        # independent model cannot reach it.
        assert pessimistic.phi("pe1", 0, strategy) == 1.0
        assert independent.phi("pe1", 0, strategy) < 1.0

    def test_partial_replication_favors_independent(
        self, pipeline_deployment
    ):
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        pessimistic = PessimisticFailureModel()
        independent = IndependentFailureModel(0.6)
        # A single active replica: the pessimistic model writes the PE
        # off entirely, the independent one keeps its availability.
        assert pessimistic.phi("pe1", 1, strategy) == 0.0
        assert independent.phi("pe1", 1, strategy) == pytest.approx(0.6)


class TestVictimInteraction:
    """Eq. 14's phi is a realized lower bound under the damage-maximal
    victim choice used by the chaos ``pessimistic`` injection."""

    def _realized_phi(self, deployment, strategy, victims, pe, c):
        survivors = [
            replica
            for replica in deployment.replicas_of(pe)
            if replica.replica != victims[pe]
        ]
        return (
            1.0
            if any(strategy.is_active(r, c) for r in survivors)
            else 0.0
        )

    @pytest.mark.parametrize(
        "single_in_high", [[], ["pe1"], ["pe2"], ["pe1", "pe2"]]
    )
    def test_victims_realize_at_least_the_pessimistic_phi(
        self, pipeline_deployment, single_in_high
    ):
        strategy = partial_strategy(pipeline_deployment, single_in_high)
        victims = pessimistic_victims(strategy)
        pessimistic = PessimisticFailureModel()
        for pe in ("pe1", "pe2"):
            for c in range(2):
                realized = self._realized_phi(
                    pipeline_deployment, strategy, victims, pe, c
                )
                assert realized >= pessimistic.phi(pe, c, strategy)

    def test_single_active_replica_is_the_victim(
        self, pipeline_deployment
    ):
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        victims = pessimistic_victims(strategy)
        # pe1 keeps only replica 0 active in High, so the worst case
        # kills exactly that one (the survivor is the inactive copy).
        assert victims["pe1"] == 0
        assert (
            self._realized_phi(
                pipeline_deployment, strategy, victims, "pe1", 1
            )
            == 0.0
        )

    def test_independent_model_is_not_fooled_by_victims(
        self, pipeline_deployment
    ):
        # The independent model would have promised 0.6 for the very
        # cell the victim silences: dominance checking must therefore
        # only ever trust the pessimistic floor (what the invariant
        # checker's `ic-bound` does).
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        victims = pessimistic_victims(strategy)
        independent = IndependentFailureModel(0.6)
        realized = self._realized_phi(
            pipeline_deployment, strategy, victims, "pe1", 1
        )
        assert independent.phi("pe1", 1, strategy) > realized
