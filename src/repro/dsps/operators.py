"""PE replica runtime: queues, service, selectivity, replication roles.

Each deployed replica behaves like a Streams PE fused with its LAAR
HAProxy (Sec. 5.1):

* it owns one bounded FIFO queue per input port (2 seconds of High-rate
  input in the paper's setup); tuples arriving at a full queue are dropped;
* tuple processing costs ``gamma`` CPU cycles, executed by the replica's
  host under processor sharing (:mod:`repro.dsps.hosts`) — the busy-wait
  of footnote 3;
* selectivity follows the integer-multiple rule of footnote 3 (an output
  tuple is produced whenever the accumulated credit reaches 1);
* only the *primary* replica forwards output downstream; all replicas of a
  PE receive the same input from their predecessors' primaries;
* activate/deactivate commands immediately stop/resume processing; an
  inactive replica ignores its input (no drops are charged);
* crashes abort in-flight work and lose queued tuples; recovery rejoins
  the group as a secondary after a state resynchronisation delay.

Primary election lives in :class:`ReplicaGroup`: controlled deactivation
hands the primary role over instantly (the controller is reliable), while
a crash is only detected after the platform's failover delay (modelling
the heartbeat timeout of the HAProxy protocol).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.deployment import ReplicaId
from repro.dsps.hosts import HostScheduler
from repro.dsps.metrics import PortCounters, ReplicaMetrics
from repro.errors import SimulationError
from repro.sim import Environment, EventHandle

__all__ = ["PortSpec", "OperatorReplica", "ReplicaGroup"]


@dataclass(frozen=True)
class PortSpec:
    """Static parameters of one input port (one incoming edge)."""

    name: str  # predecessor component name
    cycles: float  # per-tuple CPU cost (gamma) on this port
    selectivity: float
    capacity: int  # queue bound, in tuples

    def __post_init__(self) -> None:
        if self.cycles < 0 or not math.isfinite(self.cycles):
            raise SimulationError(
                f"port {self.name!r} per-tuple cycles must be finite and"
                f" >= 0, got {self.cycles}"
            )
        if self.capacity < 1:
            raise SimulationError("port capacity must be >= 1")


class OperatorReplica:
    """One deployed replica of a PE, executing on its host's CPU."""

    def __init__(
        self,
        env: Environment,
        replica_id: ReplicaId,
        host: HostScheduler,
        ports: Sequence[PortSpec],
        metrics: ReplicaMetrics,
        emit: Callable[["OperatorReplica", float], None],
        initially_active: bool = True,
        resync_delay: float = 0.0,
        events=None,
        tracer=None,
    ) -> None:
        self._env = env
        self.replica_id = replica_id
        self.host = host
        self._ports = list(ports)
        self._port_index = {p.name: i for i, p in enumerate(self._ports)}
        self._metrics = metrics
        self._emit = emit
        self._resync_delay = resync_delay
        # Optional observability hooks: an EventLog and a TupleTracer
        # (see repro.obs). Both default to None so direct construction in
        # tests pays nothing.
        self._events = events
        self._tracer = tracer
        self._overflowed = [False] * len(self._ports)
        # PortCounters per port index, resolved on the port's first tuple
        # (a port that never saw one stays absent from ``metrics.ports``).
        self._counters: list[Optional[PortCounters]] = [None] * len(
            self._ports
        )

        self.active = initially_active
        self.alive = True
        self._resyncing = False
        self.group: Optional["ReplicaGroup"] = None
        #: Hook fired on every processability transition (the platform
        #: bumps its control epoch here).
        self.on_state_change: Callable[[], None] = lambda: None

        # Pending tuples as (port index, source emission time) pairs; the
        # birth timestamp rides along so sinks can measure end-to-end
        # latency.
        self._queue: deque[tuple[int, float]] = deque()
        self._port_fill = [0] * len(self._ports)
        self._credits = [0.0] * len(self._ports)
        self._serving: Optional[tuple[int, float]] = None  # in-flight tuple

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.group is not None and self.group.primary is self

    @property
    def processable(self) -> bool:
        return self.alive and self.active and not self._resyncing

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._serving is not None else 0)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def on_tuple(self, from_component: str, birth: float | None = None) -> None:
        """A tuple arrives from the primary of a predecessor.

        ``birth`` is the emission time of the originating source tuple;
        it defaults to "now" for tuples injected directly in tests.
        """
        if not self.alive or not self.active or self._resyncing:
            return  # HAProxy ignores input while inactive / crashed
        port = self._port_index[from_component]
        metrics = self._metrics
        metrics.received += 1
        counters = self._counters[port]
        if counters is None:
            counters = self._counters[port] = metrics.port(from_component)
        counters.received += 1
        spec = self._ports[port]
        if self._port_fill[port] >= spec.capacity:
            metrics.dropped += 1
            counters.dropped += 1
            primary = self.is_primary
            if primary:
                metrics.dropped_as_primary += 1
            if self._events is not None:
                self._events.emit(
                    "tuple.drop",
                    replica=str(self.replica_id),
                    port=from_component,
                    primary=primary,
                )
                if not self._overflowed[port]:
                    # One overflow event per transition into the full
                    # state, not one per dropped tuple.
                    self._overflowed[port] = True
                    self._events.emit(
                        "queue.overflow",
                        replica=str(self.replica_id),
                        port=from_component,
                        capacity=spec.capacity,
                    )
            if self._tracer is not None and birth is not None:
                self._tracer.stage(
                    "drop", birth, replica=str(self.replica_id)
                )
            return
        self._overflowed[port] = False
        self._port_fill[port] += 1
        arrival = self._env.now if birth is None else birth
        if self._tracer is not None:
            self._tracer.stage(
                "enqueue", arrival, replica=str(self.replica_id)
            )
        entry = (port, arrival)
        queue = self._queue
        if self._serving is not None:
            queue.append(entry)
            return
        if queue:  # idle with a backlog: the oldest tuple goes first
            queue.append(entry)
            entry = queue.popleft()
        self._serving = entry
        self.host.submit(
            self, self._ports[entry[0]].cycles, self._complete_service
        )

    def _complete_service(self) -> None:
        # Primaryship, CPU seconds and the next tuple's start are read
        # inline: this runs once per host completion.
        if self._serving is None:  # pragma: no cover - defensive
            raise SimulationError("completion without an in-flight tuple")
        port, birth = self._serving
        self._serving = None
        self._port_fill[port] -= 1
        spec = self._ports[port]
        metrics = self._metrics
        host = self.host
        cpu_seconds = spec.cycles / host.cycles_per_core
        metrics.busy_time += cpu_seconds
        metrics.processed += 1
        # on_tuple resolved this port's counters when the tuple arrived.
        counters = self._counters[port]
        counters.processed += 1
        counters.busy_time += cpu_seconds
        group = self.group
        primary = group is not None and group.primary is self
        if primary:
            metrics.processed_as_primary += 1
        if self._tracer is not None:
            self._tracer.stage(
                "process", birth, replica=str(self.replica_id)
            )

        # Selectivity credit accounting (footnote 3). Emitted tuples carry
        # the birth time of the tuple whose processing triggered them.
        credit = self._credits[port] + spec.selectivity
        emitted = int(credit)
        self._credits[port] = credit - emitted
        if emitted:
            counters.emitted += emitted
            if primary:
                for _ in range(emitted):
                    self._emit(self, birth)

        queue = self._queue
        if queue and self.alive and self.active and not self._resyncing:
            entry = queue.popleft()
            self._serving = entry
            host.submit(
                self, self._ports[entry[0]].cycles, self._complete_service
            )

    # ------------------------------------------------------------------
    # Control path (HAProxy commands)
    # ------------------------------------------------------------------

    def deactivate(self) -> None:
        """Controller command: drop into the idle, resource-saving state."""
        if not self.active:
            return
        self.active = False
        self.on_state_change()
        if self._events is not None:
            self._events.emit(
                "replica.deactivate", replica=str(self.replica_id)
            )
        self._abort_work()
        if self.group is not None:
            self.group.on_member_unavailable(self, detected_after=0.0)

    def activate(self) -> None:
        """Controller command: resynchronise and resume processing."""
        if self.active:
            return
        self.active = True
        self.on_state_change()
        if self._events is not None:
            self._events.emit(
                "replica.activate", replica=str(self.replica_id)
            )
        if not self.alive:
            return
        self._begin_resync()

    def crash(self) -> None:
        """Fail-stop: lose queued tuples and in-flight work."""
        if not self.alive:
            return
        self.alive = False
        self.on_state_change()
        self._abort_work()
        if self.group is not None:
            self.group.on_member_unavailable(
                self, detected_after=self.group.failover_delay
            )

    def recover(self) -> None:
        """The platform restarted this replica (e.g. after host recovery)."""
        if self.alive:
            return
        self.alive = True
        self.on_state_change()
        if self.group is not None:
            # Re-register with the failure detector *before* resync: the
            # restarted HAProxy announces itself even while its state is
            # still resynchronising, so detection bookkeeping (heartbeat
            # freshness, a pending failover window) is repaired whether or
            # not the replica is immediately processable.
            self.group.on_member_recovered(self)
        if self.active:
            self._begin_resync()

    def _begin_resync(self) -> None:
        if self._resync_delay <= 0:
            self._finish_resync()
            return
        self._resyncing = True
        self.on_state_change()
        self._env.schedule(self._resync_delay, self._finish_resync)

    def _finish_resync(self) -> None:
        self._resyncing = False
        self.on_state_change()
        if self.processable and self.group is not None:
            self.group.on_member_available(self)

    def _abort_work(self) -> None:
        discarded = len(self._queue)
        if self._serving is not None:
            consumed = self.host.cancel(self)
            self._metrics.busy_time += self.host.cpu_seconds(consumed)
            self._serving = None
            discarded += 1
        self._metrics.lost += discarded
        self._queue.clear()
        self._port_fill = [0] * len(self._ports)


class ReplicaGroup:
    """All replicas of one logical PE, with primary election.

    The initial primary is the lowest-indexed processable replica. A
    replica that becomes available again joins as a secondary unless the
    group currently has no primary. Two failure-detection modes:

    * **abstract** (default): a crashed primary's role moves to the next
      processable replica exactly ``failover_delay`` seconds later — the
      HAProxy heartbeat protocol collapsed into a constant.
    * **heartbeat** (:meth:`enable_heartbeats`): every processable
      replica emits a heartbeat each interval (Sec. 5.1's HAProxy sends
      them to the proxies of its successors); a watchdog declares the
      primary dead when its last beat is older than the timeout, so the
      detection latency is *emergent* — between ``timeout`` and
      ``timeout + interval``. Heartbeat traffic is charged to the
      network metrics with the PE's downstream fan-out.

    Controller-driven deactivation hands the role over instantly in both
    modes (the control plane is reliable and ordered).
    """

    def __init__(
        self,
        env: Environment,
        pe: str,
        failover_delay: float = 1.0,
        telemetry=None,
    ) -> None:
        self._env = env
        self.pe = pe
        self.failover_delay = failover_delay
        #: Members in replica-index order. A tuple replaced on every
        #: add/remove: the data path iterates it without copying, and a
        #: caller holding it across a membership change keeps a snapshot.
        self.members: tuple[OperatorReplica, ...] = ()
        self.primary: Optional[OperatorReplica] = None
        #: Hook fired on every primary (re)assignment — the platform
        #: bumps its control epoch here, since which replica forwards
        #: downstream is baked into the batched engine's templates.
        self.on_primary_change: Callable[[], None] = lambda: None
        self._pending_election: Optional[EventHandle] = None
        self._heartbeats_enabled = False
        self._hb_interval = 0.0
        self._hb_timeout = 0.0
        self._hb_fanout = 0
        self._hb_network = None
        self._last_beat: dict[OperatorReplica, float] = {}
        #: Each member's pending beat event, cancelled when it leaves.
        self._beats: dict[OperatorReplica, EventHandle] = {}
        # Optional repro.obs.Telemetry: primary.lost / primary.elected
        # events plus a "failover" span over each detection→re-election
        # window.
        self._telemetry = telemetry
        self._failover_span = None

    def add(self, replica: OperatorReplica) -> None:
        replica.group = self
        self.members = tuple(
            sorted(
                (*self.members, replica), key=lambda r: r.replica_id.replica
            )
        )
        if self._heartbeats_enabled:
            # A member joining after heartbeats were enabled must be
            # registered with the detector immediately: without a beat
            # loop and a fresh ``_last_beat`` entry the watchdog would
            # read its freshness as -inf and depose it on every tick.
            self._last_beat[replica] = self._env.now
            self._start_beats(replica)

    def remove(self, replica: OperatorReplica) -> None:
        """Detach a member (live migration cutover / rollback).

        The replica keeps its metrics and any queued work — it simply
        stops being a delivery target and can no longer be (re)elected.
        A detached primary hands the role over immediately: the detach
        is a controller action, so the handover is reliable and ordered
        like a deactivation, not a crash.
        """
        if replica not in self.members:
            raise SimulationError(
                f"replica {replica.replica_id} is not a member of {self.pe}"
            )
        self.members = tuple(m for m in self.members if m is not replica)
        replica.group = None
        self._last_beat.pop(replica, None)
        beat = self._beats.pop(replica, None)
        if beat is not None:
            # A detached replica stops beating: it no longer counts for
            # the detector, and its traffic is not charged.
            beat.cancel()
        if self.primary is replica:
            if self._telemetry is not None:
                self._telemetry.emit(
                    "primary.lost",
                    pe=self.pe,
                    replica=str(replica.replica_id),
                    reason="deactivate",
                )
            self._set_primary(None)
            if self._pending_election is not None:
                self._pending_election.cancel()
                self._pending_election = None
            self._elect()

    def close(self) -> None:
        """Drop the links to the members (each links back through
        ``group``), once the run is over."""
        self.members = ()
        self.primary = None
        self._last_beat = {}
        self._beats = {}

    def initialise_primary(self) -> None:
        self._set_primary(self._first_processable())

    def _set_primary(self, replica: Optional[OperatorReplica]) -> None:
        self.primary = replica
        self.on_primary_change()

    def _first_processable(self) -> Optional[OperatorReplica]:
        for member in self.members:
            if member.processable:
                return member
        return None

    def enable_heartbeats(
        self,
        interval: float,
        timeout: float,
        fanout: int = 0,
        network=None,
    ) -> None:
        """Switch to heartbeat-based failure detection.

        ``fanout`` is the number of downstream receivers each beat goes
        to (successor replicas + sinks); ``network`` is the
        :class:`~repro.dsps.metrics.NetworkMetrics` the traffic is
        charged to (optional).
        """
        if not (0 < interval < math.inf and 0 < timeout < math.inf):
            raise SimulationError(
                "heartbeat interval/timeout must be finite and > 0,"
                f" got {interval}/{timeout}"
            )
        self._heartbeats_enabled = True
        self._hb_interval = interval
        self._hb_timeout = timeout
        self._hb_fanout = fanout
        self._hb_network = network
        env = self._env
        now = env.now
        self._last_beat = {member: now for member in self.members}
        for member in self.members:
            self._start_beats(member)
        env.schedule(0.0, lambda: env.schedule(interval, self._watchdog))

    def _start_beats(self, member: OperatorReplica) -> None:
        self._beats[member] = self._env.schedule(
            0.0, lambda: self._next_beat(member)
        )

    def _next_beat(self, member: OperatorReplica) -> None:
        self._beats[member] = self._env.schedule(
            self._hb_interval, lambda: self._beat(member)
        )

    def _beat(self, member: OperatorReplica) -> None:
        if member.alive and member.processable:
            self._last_beat[member] = self._env.now
            if self._hb_network is not None:
                self._hb_network.heartbeat_messages += max(1, self._hb_fanout)
        self._next_beat(member)

    def _watchdog(self) -> None:
        primary = self.primary
        if primary is None:
            if self._pending_election is None:
                self._elect()
        elif (
            self._env.now - self._last_beat.get(primary, -1e18)
            > self._hb_timeout
        ):
            self._set_primary(None)
            self._elect()
        self._env.schedule(self._hb_interval, self._watchdog)

    def on_member_unavailable(
        self, member: OperatorReplica, detected_after: float
    ) -> None:
        if self.primary is not member:
            return
        if self._telemetry is not None:
            self._telemetry.emit(
                "primary.lost",
                pe=self.pe,
                replica=str(member.replica_id),
                reason="deactivate" if detected_after <= 0 else "crash",
            )
            if detected_after > 0 and self._failover_span is None:
                # The window from the failure instant to the re-election
                # that follows detection. In heartbeat mode the election
                # is triggered later by the watchdog, so the span's
                # duration captures the *emergent* detection latency.
                self._failover_span = self._telemetry.spans.begin(
                    "failover",
                    pe=self.pe,
                    replica=str(member.replica_id),
                )
        if detected_after <= 0:
            # Controlled deactivation: the controller is reliable, the
            # handover is immediate in both detection modes.
            self._set_primary(None)
            if self._pending_election is not None:
                self._pending_election.cancel()
                self._pending_election = None
            self._elect()
            return
        if self._heartbeats_enabled:
            # Crash: the primary role formally persists until the
            # watchdog sees the heartbeats go stale.
            return
        self._set_primary(None)
        if self._pending_election is not None:
            self._pending_election.cancel()
            self._pending_election = None
        self._pending_election = self._env.schedule(
            detected_after, self._elect
        )

    def on_member_available(self, member: OperatorReplica) -> None:
        if self.primary is None and self._pending_election is None:
            self._set_primary(member)
            self._note_elected(member)

    def on_member_recovered(self, member: OperatorReplica) -> None:
        """A crashed member restarted: re-register it with the detector.

        In heartbeat mode a recovered replica gets a fresh ``_last_beat``
        stamp (its restarted HAProxy announces itself) instead of keeping
        the stale pre-crash entry. And when the *primary* recovers before
        the watchdog ever declared it dead — a crash/recover flap shorter
        than the detection timeout — the failover window opened at the
        crash is resolved here: without this, the span would dangle and
        be mis-attributed to the *next* failover (with a wildly inflated
        duration), which would also never get a span of its own.
        """
        if not self._heartbeats_enabled:
            return
        self._last_beat[member] = self._env.now
        if member is self.primary and self._failover_span is not None:
            self._failover_span.end(
                elected=str(member.replica_id), resumed=True
            )
            self._failover_span = None
            if self._telemetry is not None:
                self._telemetry.emit(
                    "primary.elected",
                    pe=self.pe,
                    replica=str(member.replica_id),
                )

    def elect_now(self) -> None:
        """Resolve the primary immediately, bypassing failure detection.

        Used when a failure is known a priori — e.g. the paper's worst
        case, where a replica of each PE is crashed *throughout* the
        experiment, so the run starts with the survivor already primary.
        """
        if self._pending_election is not None:
            self._pending_election.cancel()
        self._elect()

    def _elect(self) -> None:
        self._pending_election = None
        self._set_primary(self._first_processable())
        self._note_elected(self.primary)

    def _note_elected(self, winner: Optional[OperatorReplica]) -> None:
        # The failover span stays open until a primary actually takes
        # over, so its duration is the true no-primary window even when
        # the first election finds no survivor.
        if self._telemetry is None or winner is None:
            return
        if self._failover_span is not None:
            self._failover_span.end(elected=str(winner.replica_id))
            self._failover_span = None
        self._telemetry.emit(
            "primary.elected",
            pe=self.pe,
            replica=str(winner.replica_id),
        )
