"""The structured event log: typed, sim-time-stamped run events.

The paper's evaluation "periodically query[s] Streams about the current
status of all the PEs and log[s] this information" (Sec. 5.2). This
module is that logging loop made first-class: every interesting runtime
occurrence — a dropped tuple, a replica crash, a primary election, a
configuration switch — is emitted as a typed :class:`Event` into a
process-wide-per-run :class:`EventLog`.

Design constraints (see docs/observability.md):

* **sim-time only** — events are stamped from the simulation clock, never
  the wall clock, so two runs with the same seed produce *bit-identical*
  event streams regardless of host speed or worker count;
* **bounded memory** — the log is a ring buffer (``maxlen`` events); the
  oldest events are evicted, with an eviction counter so consumers can
  tell a truncated log from a complete one;
* **near-zero overhead** — ``emit`` is one clock read, one small dict,
  one deque append and one per-type counter bump; no formatting or I/O
  happens until a consumer asks for JSONL.

The known event types and their required payload fields live in
:data:`EVENT_SCHEMA`; ``python -m repro.obs.validate`` checks exported
JSONL files against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "Event",
    "EventLog",
    "EVENT_SCHEMA",
    "event_to_json",
    "known_event_types",
    "required_fields",
]


#: Known event types mapped to their payload fields and declared value
#: types. Tags: ``str``/``int``/``float``/``bool``/``list``/``dict``/
#: ``any``, with a trailing ``?`` marking a nullable field; ``float``
#: accepts ints (JSON keeps no distinction) and ``int`` rejects bools.
#: Both the runtime validator (``python -m repro.obs.validate``) and the
#: static R4 rule (``repro.analysis``) consume this table, so additions
#: are additive schema changes and removals (or tightenings) break
#: existing streams.
EVENT_SCHEMA: dict[str, dict[str, str]] = {
    # simulation kernel
    "sim.run.start": {"until": "float?"},
    "sim.run.end": {"events_processed": "int", "events_cancelled": "int"},
    # data path
    "tuple.drop": {"replica": "str", "port": "str", "primary": "bool"},
    "queue.overflow": {"replica": "str", "port": "str", "capacity": "int"},
    "tuple.trace": {"stage": "str", "birth": "float"},
    # failures and recovery
    "replica.crash": {"replica": "str"},
    "replica.recover": {"replica": "str"},
    "host.crash": {"host": "str"},
    "host.recover": {"host": "str"},
    "host.degrade": {"host": "str", "factor": "float"},
    "host.restore": {"host": "str"},
    # chaos campaigns (repro.chaos)
    "chaos.campaign": {"seed": "int", "injections": "list"},
    "chaos.inject": {"kind": "str", "at": "float"},
    # Control-plane disturbance windows (repro.dsps.batched
    # FallbackTracker): emitted in both execution modes when a control
    # action opens one. A marker for reports, not an execution mode —
    # the batched engine decides by platform state, not by this window.
    "batch.fallback": {"reason": "str", "until": "float"},
    # Runtime elasticity (repro.elastic): live migrations and host
    # lifecycle. ``migration.start`` names the replica being attached
    # (or detached, for removals) so streaming consumers can track the
    # dynamic membership without a deployment re-read.
    "migration.start": {
        "migration": "str",
        "pe": "str",
        "action": "str",
        "replica": "str",
        "src": "str",
        "dst": "str",
    },
    "migration.transfer": {
        "migration": "str",
        "pe": "str",
        "replica": "str",
        "seconds": "float",
    },
    # ``from``/``to`` are Python keywords, so emitters must pass them
    # via ``**{...}``; the static never-validated audit cannot see them.
    # repro: allow[R4] reason=from/to collide with Python keywords, star-kwargs only
    "migration.cutover": {
        "migration": "str",
        "pe": "str",
        "from": "str",
        "to": "str",
    },
    "migration.done": {
        "migration": "str",
        "pe": "str",
        "action": "str",
        "lost": "int",
    },
    "migration.abort": {"migration": "str", "pe": "str", "reason": "str"},
    "host.cordon": {"host": "str"},
    "host.drain": {"host": "str", "residents": "int"},
    "host.reclaim": {"host": "str", "cores": "float"},
    # replication control
    "replica.activate": {"replica": "str"},
    "replica.deactivate": {"replica": "str"},
    "primary.elected": {"pe": "str", "replica": "str"},
    "primary.lost": {"pe": "str", "replica": "str", "reason": "str"},
    # LAAR middleware (``from``/``to``: same keyword collision)
    # repro: allow[R4] reason=from/to collide with Python keywords, star-kwargs only
    "config.switch": {"from": "int", "to": "int", "commands": "int"},
    "rate.measurement": {"rates": "dict"},
    "sla.check": {
        "selected": "int",
        "current": "int",
        "switched": "bool",
    },
    "config.fallback": {"config": "int", "rates": "dict"},
    # fleet control plane (repro.fleet)
    "fleet.admit": {
        "tenant": "str",
        "app": "str",
        "ic": "float",
        "cost": "float",
        "hosts": "int",
        "cores": "float",
        "fare": "float",
        "cache": "bool",
    },
    "fleet.reject": {"tenant": "str", "app": "str", "reason": "str"},
    "fleet.replan": {
        "tenant": "str",
        "factor": "float",
        "feasible": "bool",
        "nodes": "int",
        "warm": "bool",
    },
    "fleet.evict": {"tenant": "str", "reason": "str"},
    # span tracing (emitted by repro.obs.spans)
    "span.start": {"span": "int", "name": "str"},
    "span.end": {"span": "int", "name": "str", "duration": "float"},
    # streaming SLO engine (repro.obs.slo)
    "slo.window": {
        "tenant": "str",
        "window": "int",
        "start": "float",
        "end": "float",
        "phase": "str",
        "availability": "float",
        "bad_seconds": "float",
        "input": "int",
        "output": "int",
        "drops": "float",
        "failovers": "int",
        "lat_count": "int",
        "lat_p50": "float?",
        "lat_p95": "float?",
        "lat_max": "float?",
    },
    "slo.alert": {
        "tenant": "str",
        "rule": "str",
        "state": "str",
        "window": "int",
        "burn_fast": "float",
        "burn_slow": "float",
    },
    "slo.budget": {
        "tenant": "str",
        "objective": "float",
        "windows": "int",
        "bad_seconds": "float",
        "budget_seconds": "float",
        "burned": "float",
        "alerts": "int",
        "trusted": "bool",
        "verdict": "str",
    },
}

#: Valid base type tags (the trailing ``?`` marks nullability).
_TAG_BASES = frozenset({"str", "int", "float", "bool", "list", "dict", "any"})


def known_event_types() -> tuple[str, ...]:
    """Every declared event type, sorted — for validators and linters.

    ``repro.obs.validate`` checks streams against this at runtime;
    ``repro.analysis`` cross-checks its AST-parsed view of the schema
    against it, so the static and runtime validators can never disagree
    about which types exist.
    """
    return tuple(sorted(EVENT_SCHEMA))


def required_fields(type_: str) -> frozenset[str]:
    """The required payload fields of one event type.

    Raises ``KeyError`` for unknown types — callers that want a soft
    answer should test membership via :func:`known_event_types` first.
    """
    return frozenset(EVENT_SCHEMA[type_])


def field_types(type_: str) -> dict[str, str]:
    """Field name -> declared type tag for one event type.

    Raises ``KeyError`` for unknown types, like :func:`required_fields`.
    """
    return dict(EVENT_SCHEMA[type_])


def check_field_value(tag: str, value: object) -> bool:
    """Whether one payload value satisfies one declared type tag.

    The runtime twin of the static R4 tag check: ``float`` accepts
    ints, ``int`` and ``float`` reject bools, ``any`` accepts
    everything, and a trailing ``?`` additionally accepts ``None``.
    """
    base = tag[:-1] if tag.endswith("?") else tag
    if value is None:
        return tag.endswith("?")
    if base == "any":
        return True
    if base == "str":
        return isinstance(value, str)
    if base == "bool":
        return isinstance(value, bool)
    if base == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if base == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if base == "list":
        return isinstance(value, (list, tuple))
    if base == "dict":
        return isinstance(value, dict)
    return base in _TAG_BASES


@dataclass(frozen=True)
class Event:
    """One telemetry event: a sequence number, a sim-time stamp, a type
    from :data:`EVENT_SCHEMA`, and a flat payload dict."""

    seq: int
    time: float
    type: str
    fields: dict[str, Any]


#: The canonical form, built once: ``json.dumps`` with these arguments
#: would construct the same encoder again for every line.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def event_to_json(event: Event) -> str:
    """Serialize one event to a canonical JSON line.

    Keys are sorted and separators fixed so equal events always produce
    byte-identical lines — the basis of the cross-worker determinism
    contract tested in ``tests/experiments/test_parallel.py``.
    """
    record: dict[str, Any] = {
        "seq": event.seq,
        "t": event.time,
        "type": event.type,
    }
    record.update(event.fields)
    return _CANONICAL.encode(record)


class EventLog:
    """A bounded, append-only log of typed sim-time events.

    ``clock`` is a zero-argument callable returning the current simulated
    time (e.g. ``lambda: env.now``); with ``clock=None`` every event is
    stamped 0.0 (useful for pure unit tests). ``maxlen`` bounds memory:
    once full, the oldest events are evicted and counted in
    :attr:`evicted`.
    """

    __slots__ = (
        "_clock",
        "_events",
        "_head",
        "_maxlen",
        "_seq",
        "_taps",
        "evicted",
        "type_counts",
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        maxlen: int = 65536,
    ) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._clock = clock
        # A manually managed ring: plain list + head index. Cheaper than
        # deque for the append-mostly workload and keeps eviction counting
        # explicit.
        self._events: list[Event] = []
        self._head = 0
        self._maxlen = maxlen
        self._seq = 0
        #: Events evicted from the ring so far (0 for a complete log).
        self.evicted = 0
        #: Per-type emit counts over the whole run (evictions included).
        self.type_counts: dict[str, int] = {}
        # Streaming subscribers (see add_tap); empty for plain logs, so
        # the hot path pays only one truthiness check when unused.
        self._taps: list[Callable[[Event], None]] = []

    def add_tap(self, tap: Callable[[Event], None]) -> None:
        """Subscribe ``tap`` to every event at emit time.

        Taps see every event — including ones the ring later evicts —
        so streaming consumers (the SLO engine) survive truncated logs.
        A tap may itself emit: nested events get subsequent sequence
        numbers and are delivered to all taps in turn, so a tap that
        reacts to its own event types must filter them out.
        """
        self._taps.append(tap)

    def close(self) -> None:
        """Unsubscribe every tap; the buffered events stay readable."""
        self._taps = []

    # ------------------------------------------------------------------
    # Emission (the hot path)
    # ------------------------------------------------------------------

    def emit(self, type_: str, **fields: Any) -> Event:
        """Append one event stamped with the current simulated time."""
        time = self._clock() if self._clock is not None else 0.0
        event = Event(self._seq, time, type_, fields)
        self._seq += 1
        counts = self.type_counts
        counts[type_] = counts.get(type_, 0) + 1
        events = self._events
        if len(events) < self._maxlen:
            events.append(event)
        else:
            head = self._head
            events[head] = event
            self._head = (head + 1) % self._maxlen
            self.evicted += 1
        taps = self._taps
        if taps:
            for tap in taps:
                tap(event)
        return event

    # ------------------------------------------------------------------
    # Queries and export
    # ------------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events emitted over the run (including evicted ones)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[Event]:
        """The buffered events in emission order."""
        head = self._head
        if head == 0:
            return list(self._events)
        return self._events[head:] + self._events[:head]

    def of_type(self, type_: str) -> list[Event]:
        """Buffered events of one type, in emission order."""
        return [e for e in self.events() if e.type == type_]

    def count(self, type_: str) -> int:
        """How many events of ``type_`` were emitted (ring-independent)."""
        return self.type_counts.get(type_, 0)

    def to_jsonl(self) -> str:
        """The buffered events as canonical JSONL (one event per line)."""
        lines = [event_to_json(event) for event in self.events()]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> dict[str, Any]:
        """The log half of a run digest: counts, completeness, JSONL."""
        return {
            "events_emitted": self.emitted,
            "events_evicted": self.evicted,
            "log_complete": self.evicted == 0,
            "event_counts": dict(sorted(self.type_counts.items())),
            "jsonl": self.to_jsonl(),
        }
