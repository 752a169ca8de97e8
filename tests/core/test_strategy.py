"""Unit tests for activation strategies (Eq. 4 / Eq. 12, JSON format)."""

from __future__ import annotations

import pytest

from repro.core import ActivationStrategy, ReplicaId
from repro.errors import StrategyError


def strategy_with(deployment, overrides):
    """All-active strategy with ``{(pe, replica, config): state}`` overrides."""
    activations = {
        (replica, c): True
        for replica in deployment.replicas
        for c in range(2)
    }
    for (pe, index, c), state in overrides.items():
        activations[(ReplicaId(pe, index), c)] = state
    return ActivationStrategy(deployment, activations)


class TestConstruction:
    def test_all_active(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        for replica in pipeline_deployment.replicas:
            assert strategy.is_active(replica, 0)
            assert strategy.is_active(replica, 1)
        assert strategy.name == "SR"

    def test_single_replica(self, pipeline_deployment):
        strategy = ActivationStrategy.single_replica(
            pipeline_deployment, {"pe1": 0, "pe2": 1}
        )
        assert strategy.is_active(ReplicaId("pe1", 0), 0)
        assert not strategy.is_active(ReplicaId("pe1", 1), 0)
        assert strategy.active_count("pe2", 1) == 1

    def test_single_replica_requires_all_pes(self, pipeline_deployment):
        with pytest.raises(StrategyError, match="no chosen replica"):
            ActivationStrategy.single_replica(pipeline_deployment, {"pe1": 0})

    def test_eq12_violation_rejected(self, pipeline_deployment):
        with pytest.raises(StrategyError, match="Eq. 12"):
            strategy_with(
                pipeline_deployment,
                {("pe1", 0, 1): False, ("pe1", 1, 1): False},
            )

    def test_eq12_can_be_disabled_for_tests(self, pipeline_deployment):
        activations = {
            (replica, c): False
            for replica in pipeline_deployment.replicas
            for c in range(2)
        }
        strategy = ActivationStrategy(
            pipeline_deployment, activations, require_one_active=False
        )
        assert strategy.active_count("pe1", 0) == 0

    def test_unknown_replica_rejected(self, pipeline_deployment):
        with pytest.raises(StrategyError, match="unknown replica"):
            ActivationStrategy(
                pipeline_deployment, {(ReplicaId("ghost", 0), 0): True}
            )

    def test_config_out_of_range_rejected(self, pipeline_deployment):
        with pytest.raises(StrategyError, match="out of range"):
            ActivationStrategy(
                pipeline_deployment, {(ReplicaId("pe1", 0), 5): True}
            )


class TestQueries:
    def test_fully_replicated(self, pipeline_deployment):
        strategy = strategy_with(
            pipeline_deployment, {("pe1", 1, 1): False}
        )
        assert strategy.fully_replicated("pe1", 0)
        assert not strategy.fully_replicated("pe1", 1)

    def test_active_map_matches_is_active(self, pipeline_deployment):
        strategy = strategy_with(
            pipeline_deployment, {("pe1", 0, 0): False}
        )
        mapping = strategy.active_map(0)
        for replica, state in mapping.items():
            assert state == strategy.is_active(replica, 0)

    def test_activations_of(self, pipeline_deployment):
        strategy = strategy_with(
            pipeline_deployment, {("pe1", 0, 1): False}
        )
        assert strategy.activations_of(ReplicaId("pe1", 0)) == (True, False)

    def test_replace_revalidates(self, pipeline_deployment):
        strategy = ActivationStrategy.all_active(pipeline_deployment)
        with pytest.raises(StrategyError, match="Eq. 12"):
            strategy.replace(
                {
                    (ReplicaId("pe1", 0), 0): False,
                    (ReplicaId("pe1", 1), 0): False,
                }
            )

    def test_equality_and_hash(self, pipeline_deployment):
        a = ActivationStrategy.all_active(pipeline_deployment)
        b = ActivationStrategy.all_active(pipeline_deployment, name="other")
        assert a == b  # the name does not affect identity
        assert hash(a) == hash(b)
        c = strategy_with(pipeline_deployment, {("pe1", 0, 0): False})
        assert a != c


class TestSerialisationProperty:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=30,
        deadline=None,
        # The deployment fixture is immutable; sharing it across
        # generated inputs is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(bits=st.lists(st.integers(min_value=0, max_value=2),
                         min_size=4, max_size=4))
    def test_random_strategy_json_round_trip(
        self, pipeline_deployment, bits
    ):
        """Any valid activation table survives the HAController JSON
        format byte-for-byte (value 0/1/2 = only-0 / only-1 / both)."""
        values = [(True, False), (False, True), (True, True)]
        activations = {}
        cells = [
            (pe, c) for pe in ("pe1", "pe2") for c in range(2)
        ]
        for (pe, c), choice in zip(cells, bits):
            a0, a1 = values[choice]
            activations[(ReplicaId(pe, 0), c)] = a0
            activations[(ReplicaId(pe, 1), c)] = a1
        strategy = ActivationStrategy(pipeline_deployment, activations)
        clone = ActivationStrategy.from_json(
            pipeline_deployment, strategy.to_json()
        )
        assert clone == strategy


class TestSerialisation:
    def test_json_round_trip(self, tmp_path, pipeline_deployment):
        strategy = strategy_with(
            pipeline_deployment, {("pe2", 1, 1): False}
        )
        path = tmp_path / "strategy.json"
        strategy.to_json(path)
        clone = ActivationStrategy.from_json(pipeline_deployment, path)
        assert clone == strategy

    def test_invalid_json_rejected(self, pipeline_deployment):
        with pytest.raises(StrategyError, match="invalid strategy JSON"):
            ActivationStrategy.from_json(pipeline_deployment, "{oops")
