"""Eq. 14's phi against the chaos ``pessimistic`` injection (Sec. 4.4).

:func:`repro.core.pessimistic_phi` is the failure model the IC metric,
FT-Search and the run-time judge all hold a run to; the damage-maximizing
victim choice of :func:`repro.chaos.injectors.pessimistic_victims` must
never realize less.
"""

from __future__ import annotations

import pytest

from repro.core import ActivationStrategy, ReplicaId, pessimistic_phi
from repro.chaos import pessimistic_victims


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
        for c in range(2):
            phi = pessimistic_phi(strategy, c)
            for pe in ("pe1", "pe2"):
                realized = self._realized_phi(
                    pipeline_deployment, strategy, victims, pe, c
                )
                assert realized >= phi[pe]

    def test_single_active_replica_is_the_victim(
        self, pipeline_deployment
    ):
        strategy = partial_strategy(pipeline_deployment, ["pe1"])
        victims = pessimistic_victims(strategy)
        # pe1 keeps only replica 0 active in High, so the worst case
        # kills exactly that one (the survivor is the inactive copy).
        assert victims["pe1"] == 0
        assert pessimistic_phi(strategy, 1)["pe1"] == 0.0
        assert (
            self._realized_phi(
                pipeline_deployment, strategy, victims, "pe1", 1
            )
            == 0.0
        )
