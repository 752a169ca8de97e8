"""The one replayed deployment state and the one judge of the floor.

``FloorAvailability`` (streaming) and ``check_campaign`` (post-hoc) both
read one ``repro.obs.replay.FloorWalker``; these tests pin the shared
event list to the schema, the walker's intervals to a tiling of the run,
and establish the two judges' agreement on generated logs, not only on
pinned ones.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.chaos.invariants import check_campaign
from repro.core.deployment import ReplicaId
from repro.core.strategy import ActivationStrategy
from repro.fleet.dataplane import DataplaneParams, tenant_app
from repro.obs.events import EVENT_SCHEMA
from repro.obs.replay import (
    CHECKED,
    OFF_MODEL,
    STATE_EVENTS,
    TRANSITION,
    DeploymentState,
    FloorWalker,
)
from repro.obs.slo import FloorAvailability

#: Three PEs, k=2, three hosts, two input configurations (Low/High).
_SMALL = tenant_app(
    DataplaneParams(tenants=1, n_pes=3, n_hosts=3), 0
).deployment
_PES = _SMALL.descriptor.graph.pes
_HOSTS = _SMALL.host_names
_N_CONFIGS = len(_SMALL.descriptor.configuration_space)
#: The static replicas plus one migration target per PE.
_REPLICAS = [f"{pe}#{index}" for pe in _PES for index in range(3)]


def _judge(deployment, log, run, reference, initial_config, latency, horizon):
    """(bad seconds the tracker burned, the checker's result)."""
    tracker = FloorAvailability(
        deployment, run, reference, initial_config, command_latency=latency
    )
    for record in log:
        fields = {k: v for k, v in record.items() if k not in ("t", "type")}
        tracker.on_event(record["t"], record["type"], fields)
    result = check_campaign(
        [{"seq": seq, **record} for seq, record in enumerate(log)],
        deployment,
        run,
        reference or run,
        initial_config,
        command_latency=latency,
        detection_bound=1.0,
        horizon=horizon,
    )
    return tracker.take(horizon), result


class TestSharedEventList:
    @staticmethod
    def _sample(type_):
        """Schema-conforming fields: exactly the declared ones."""
        values = {"int": 0, "float": 0.0}
        names = {
            "replica": _REPLICAS[0],
            "from": _REPLICAS[0],
            "to": _REPLICAS[1],
            "host": _HOSTS[0],
            "src": _HOSTS[0],
            "dst": _HOSTS[1],
            "action": "move",
        }
        return {
            field: values.get(tag, names.get(field, "m0"))
            for field, tag in EVENT_SCHEMA[type_].items()
        }

    @pytest.mark.parametrize("type_", sorted(STATE_EVENTS))
    def test_member_is_declared_and_handled(self, type_):
        assert type_ in EVENT_SCHEMA
        # The handler reads nothing the schema does not declare.
        DeploymentState(_SMALL).apply(1.0, type_, self._sample(type_))

    def test_non_members_are_refused_not_ignored(self):
        # The set is generated from the handler table, so a handled
        # type cannot be missing from it; and a type outside it is an
        # error at apply(), never a silent no-op.
        state = DeploymentState(_SMALL)
        for type_ in sorted(set(EVENT_SCHEMA) - STATE_EVENTS):
            with pytest.raises(KeyError):
                state.apply(1.0, type_, {})


class TestFloorInForce:
    def test_open_migration_window_excuses_tracker_like_checker(self):
        """The drift the shared floor removed: a window opened in Low
        and still open in High holds the run to the worse of the two
        floors — in the checker *and* in the streaming tracker."""
        deployment = tenant_app(DataplaneParams(tenants=1), 0).deployment
        strategy = ActivationStrategy.all_active(deployment)
        last = deployment.descriptor.graph.pes[-1]
        outage = [
            {"t": 2.0, "type": "config.switch", "from": 0, "to": 1,
             "commands": 0},
            {"t": 3.0, "type": "replica.deactivate", "replica": f"{last}#0"},
            {"t": 3.0, "type": "replica.crash", "replica": f"{last}#1"},
            {"t": 8.0, "type": "replica.recover", "replica": f"{last}#1"},
        ]
        window = {
            "t": 1.0, "type": "migration.start", "migration": "m0",
            "pe": last, "action": "add", "replica": f"{last}#2",
            "src": "", "dst": "h00",
        }

        burned, result = _judge(
            deployment, [window] + outage, strategy, None, 0, 0.0, 10.0
        )
        assert result.ok
        assert burned == 0.0

        # Without the window both hold the High floor, and both object.
        burned, result = _judge(
            deployment, outage, strategy, None, 0, 0.0, 10.0
        )
        assert [(v.invariant, v.time) for v in result.violations] == [
            ("ic-bound", 3.0)
        ]
        assert burned == pytest.approx(5.0)


@st.composite
def _strategies(draw):
    """One of {both, only #0, only #1} per PE and configuration."""
    activations = {}
    shapes = st.sampled_from([(True, True), (True, False), (False, True)])
    for pe in _PES:
        for config in range(_N_CONFIGS):
            for index, state in enumerate(draw(shapes)):
                activations[(ReplicaId(pe, index), config)] = state
    return ActivationStrategy(_SMALL, activations)


#: Every state event, the ones that open a gap between the judges'
#: inputs (failures, switches, migration windows) three times as often.
_EVENT_MIX = sorted(STATE_EVENTS) + 2 * [
    "replica.crash",
    "replica.deactivate",
    "config.switch",
    "migration.start",
]


@st.composite
def _state_logs(draw):
    """State events at distinct grid times (0.5 s apart)."""
    replica = st.sampled_from(_REPLICAS)
    host = st.sampled_from(_HOSTS)
    log = []
    migrations = ["m-unknown"]
    for step in range(draw(st.integers(min_value=0, max_value=14))):
        type_ = draw(st.sampled_from(_EVENT_MIX))
        if type_.startswith("replica."):
            fields = {"replica": draw(replica)}
        elif type_.startswith("host."):
            fields = {"host": draw(host)}
        elif type_ == "config.switch":
            to = draw(st.integers(min_value=0, max_value=_N_CONFIGS - 1))
            fields = {"from": 0, "to": to, "commands": 0}
        elif type_ == "migration.start":
            migrations.append(f"m{step}")
            target = draw(replica)
            fields = {
                "migration": migrations[-1],
                "pe": ReplicaId.parse(target).pe,
                "action": draw(st.sampled_from(["move", "add", "remove"])),
                "replica": target,
                "src": draw(host),
                "dst": draw(host),
            }
        elif type_ == "migration.cutover":
            fields = {
                "migration": draw(st.sampled_from(migrations)),
                "pe": "",
                "from": draw(replica),
                "to": draw(replica),
            }
        else:
            fields = {"migration": draw(st.sampled_from(migrations)), "pe": ""}
        log.append({"t": 0.5 * (step + 1), "type": type_, **fields})
    return log


@st.composite
def _migration_episodes(draw):
    """One migration window from start to its end, in order: a replica
    attached on ``dst``, ``dst`` crashing and recovering under it, the
    new replica activated, then a cutover or an abort (the rollback)."""
    pe = draw(st.sampled_from(_PES))
    mid = f"e{draw(st.integers(min_value=0, max_value=99))}"
    dst = draw(st.sampled_from(_HOSTS))
    new = f"{pe}#2"
    old = f"{pe}#{draw(st.integers(min_value=0, max_value=1))}"
    action = draw(st.sampled_from(["move", "add"]))
    middle = [
        {"type": "host.crash", "host": dst},
        {"type": "host.recover", "host": dst},
        {"type": "replica.activate", "replica": new},
    ]
    steps = [
        {"type": "migration.start", "migration": mid, "pe": pe,
         "action": action, "replica": new, "src": "", "dst": dst},
        *draw(st.lists(st.sampled_from(middle), max_size=4)),
    ]
    if draw(st.booleans()):
        steps.append({"type": "migration.cutover", "migration": mid,
                      "pe": pe, "from": old, "to": new})
        steps.append({"type": "migration.done", "migration": mid, "pe": pe})
    else:
        steps.append({"type": "migration.abort", "migration": mid, "pe": pe})
    return steps


@st.composite
def _coverage_logs(draw):
    """Background state events with migration episodes spliced in."""
    log = draw(_state_logs())
    for episode in draw(st.lists(_migration_episodes(), max_size=3)):
        at = draw(st.integers(min_value=0, max_value=len(log)))
        log[at:at] = episode
    return [
        dict(record, t=0.5 * (step + 1)) for step, record in enumerate(log)
    ]


class TestIncrementalCoverage:
    @given(
        log=_coverage_logs(),
        initial=st.none() | _strategies().map(lambda s: s.active_map(0)),
    )
    def test_covered_count_equals_a_full_walk_after_every_event(
        self, log, initial
    ):
        state = DeploymentState(_SMALL, initial)
        for record in log:
            fields = {k: record[k] for k in record if k not in ("t", "type")}
            state.apply(record["t"], record["type"], fields)
            walked = sum(state.covered(pe) for pe in state.by_pe)
            assert state.covered_count() == walked


def _all_active_except(*inactive):
    return ActivationStrategy(
        _SMALL,
        {
            (replica, config): (replica, config) not in inactive
            for replica in _SMALL.replicas
            for config in range(_N_CONFIGS)
        },
    )


class TestGeneratedParity:
    # Found by this property against the hand-mirrored tracker: the
    # window opens in High, whose floor is 0 (the first PE is not fully
    # replicated there), the run switches to Low and loses that PE. The
    # checker holds the worse floor; the old tracker burned 1.0 s.
    @example(
        log=[
            {"t": 0.5, "type": "migration.start", "migration": "m0",
             "pe": _PES[0], "action": "add", "replica": f"{_PES[0]}#2",
             "src": "", "dst": _HOSTS[0]},
            {"t": 1.0, "type": "config.switch", "from": 1, "to": 0,
             "commands": 0},
            {"t": 1.5, "type": "replica.crash", "replica": f"{_PES[0]}#0"},
        ],
        run=_all_active_except((ReplicaId(_PES[0], 1), 1)),
        reference=None,
        initial_config=1,
        latency=0.0,
    )
    @given(
        log=_state_logs(),
        run=_strategies(),
        reference=st.none() | _strategies(),
        initial_config=st.integers(min_value=0, max_value=_N_CONFIGS - 1),
        # 0.25 ends a transition window mid-interval, 0.7 spans one.
        latency=st.sampled_from([0.0, 0.25, 0.7]),
    )
    def test_tracker_burns_iff_checker_reports_ic_bound(
        self, log, run, reference, initial_config, latency
    ):
        horizon = 0.5 * (len(log) + 2)
        burned, result = _judge(
            _SMALL, log, run, reference, initial_config, latency, horizon
        )
        broken = any(v.invariant == "ic-bound" for v in result.violations)
        assert (burned > 0.0) == broken


class TestWalkerTiling:
    @given(
        log=_state_logs(),
        run=_strategies(),
        reference=st.none() | _strategies(),
        initial_config=st.integers(min_value=0, max_value=_N_CONFIGS - 1),
        latency=st.sampled_from([0.0, 0.25, 0.7]),
        takes=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    )
    def test_intervals_tile_the_run_and_takes_keep_the_burn(
        self, log, run, reference, initial_config, latency, takes
    ):
        horizon = 0.5 * (len(log) + 2)
        walker = FloorWalker(
            _SMALL, run, reference or run, initial_config, latency
        )
        sliced, whole = (
            FloorAvailability(
                _SMALL, run, reference, initial_config, command_latency=latency
            )
            for _ in range(2)
        )
        marks = sorted(
            [(horizon * at, None) for at in takes]
            + [(record["t"], record) for record in log],
            key=lambda mark: mark[0],
        )
        intervals = []
        burned = 0.0
        for time, record in marks:
            intervals += walker.advance(time)
            if record is None:
                burned += sliced.take(time)
                continue
            fields = {
                k: v for k, v in record.items() if k not in ("t", "type")
            }
            walker.state.apply(time, record["type"], fields)
            sliced.on_event(time, record["type"], fields)
            whole.on_event(time, record["type"], fields)
        intervals += walker.advance(horizon)
        burned += sliced.take(horizon)

        assert intervals[0][0] == 0.0 and intervals[-1][1] == horizon
        for before, after in zip(intervals, intervals[1:]):
            assert before[1] == after[0]
        for start, end, label, margin in intervals:
            assert start < end
            assert label in (CHECKED, TRANSITION, OFF_MODEL)
            assert (margin is None) == (label != CHECKED)
        covered = sum(end - start for start, end, _, _ in intervals)
        assert covered == pytest.approx(horizon, abs=1e-9)
        assert burned == pytest.approx(whole.take(horizon), abs=1e-9)
