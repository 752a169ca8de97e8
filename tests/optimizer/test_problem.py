"""Tests for the optimization problem statement (Eq. 9-12)."""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationStrategy,
    OptimizationProblem,
    ReplicaId,
    internal_completeness,
    strategy_cost,
)
from repro.errors import OptimizationError


class TestValidation:
    def test_rejects_bad_ic_target(self, pipeline_deployment):
        with pytest.raises(OptimizationError):
            OptimizationProblem(pipeline_deployment, ic_target=1.5)


class TestEvaluate:
    def test_all_active_on_roomy_deployment(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.5)
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        evaluation = problem.evaluate(strategy)
        assert evaluation.feasible
        assert evaluation.ic == pytest.approx(1.0)
        assert evaluation.cost == pytest.approx(strategy_cost(strategy))

    def test_ic_infeasibility_detected(self, pipeline_deployment):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.9)
        strategy = ActivationStrategy.all_active(pipeline_deployment).replace(
            {
                (ReplicaId("pe1", 1), 0): False,
                (ReplicaId("pe1", 1), 1): False,
            }
        )
        evaluation = problem.evaluate(strategy)
        assert evaluation.cpu_feasible
        assert not evaluation.ic_feasible
        assert evaluation.ic == pytest.approx(
            internal_completeness(strategy)
        )

    def test_rejects_strategy_from_other_deployment(
        self, pipeline_deployment, diamond_deployment
    ):
        problem = OptimizationProblem(pipeline_deployment, ic_target=0.5)
        foreign = ActivationStrategy.all_active(diamond_deployment)
        with pytest.raises(OptimizationError, match="different deployment"):
            problem.evaluate(foreign)
