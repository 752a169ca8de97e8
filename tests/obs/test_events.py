"""The structured event log: stamping, ring buffering, canonical JSONL."""

from __future__ import annotations

import json

import pytest

from repro.obs import EVENT_SCHEMA, Event, EventLog, event_to_json


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestEmission:
    def test_events_are_stamped_from_the_clock(self):
        clock = FakeClock()
        log = EventLog(clock=clock)
        log.emit("replica.crash", replica="pe0#0")
        clock.now = 3.5
        log.emit("replica.recover", replica="pe0#0")
        first, second = log.events()
        assert (first.time, second.time) == (0.0, 3.5)

    def test_seq_is_strictly_increasing(self):
        log = EventLog()
        for _ in range(5):
            log.emit("replica.crash", replica="r")
        assert [e.seq for e in log.events()] == [0, 1, 2, 3, 4]

    def test_no_clock_stamps_zero(self):
        log = EventLog()
        assert log.emit("host.crash", host="h0").time == 0.0

    def test_type_counts_and_count(self):
        log = EventLog()
        log.emit("host.crash", host="h0")
        log.emit("host.crash", host="h1")
        log.emit("host.recover", host="h0")
        assert log.count("host.crash") == 2
        assert log.count("host.recover") == 1
        assert log.count("tuple.drop") == 0


class TestRingBuffer:
    def test_eviction_keeps_newest_in_order(self):
        log = EventLog(maxlen=3)
        for i in range(7):
            log.emit("host.crash", host=f"h{i}")
        assert log.evicted == 4
        assert len(log) == 3
        assert [e.fields["host"] for e in log.events()] == ["h4", "h5", "h6"]
        assert [e.seq for e in log.events()] == [4, 5, 6]

    def test_counters_survive_eviction(self):
        log = EventLog(maxlen=2)
        for _ in range(10):
            log.emit("tuple.drop", replica="r", port="p", primary=True)
        assert log.emitted == 10
        assert log.count("tuple.drop") == 10

    def test_invalid_maxlen_rejected(self):
        with pytest.raises(ValueError):
            EventLog(maxlen=0)


class TestJsonExport:
    def test_canonical_line_is_key_sorted_and_compact(self):
        event = Event(7, 1.25, "tuple.drop", {"replica": "r", "port": "p"})
        line = event_to_json(event)
        assert line == '{"port":"p","replica":"r","seq":7,"t":1.25,"type":"tuple.drop"}'

    def test_equal_events_serialize_byte_identically(self):
        a = Event(0, 2.0, "host.crash", {"host": "h0"})
        b = Event(0, 2.0, "host.crash", {"host": "h0"})
        assert event_to_json(a) == event_to_json(b)

    def test_line_equals_json_dumps_of_the_record(self):
        """The shared encoder is `json.dumps(sort_keys, compact)` built
        once: nested payloads, floats, non-ASCII and None agree."""
        fields = {
            "z": [1, 2.5, {"b": None, "a": True}],
            "alert": {"burn": 1e-09, "state": "firing", "n": 10**20},
            "host": "h\u00e9-0",
            "ratio": 0.1 + 0.2,
            "big": 1.0e22,
        }
        event = Event(3, 29.999999999999996, "slo.window", fields)
        record = {"seq": 3, "t": 29.999999999999996, "type": "slo.window"}
        record.update(fields)
        assert event_to_json(event) == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )

    def test_to_jsonl_round_trips(self):
        log = EventLog()
        log.emit("host.crash", host="h0")
        log.emit("host.recover", host="h0")
        lines = log.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["host.crash", "host.recover"]

    def test_empty_log_exports_empty_string(self):
        assert EventLog().to_jsonl() == ""


class TestSchema:
    def test_every_schema_type_is_namespaced(self):
        assert all("." in type_ for type_ in EVENT_SCHEMA)

    def test_core_field_names_are_reserved(self):
        # Payload fields may never shadow the envelope keys.
        for fields in EVENT_SCHEMA.values():
            assert not fields.keys() & {"seq", "t", "type"}

    def test_every_field_tag_is_well_formed(self):
        from repro.obs.events import _TAG_BASES

        for fields in EVENT_SCHEMA.values():
            for tag in fields.values():
                base = tag[:-1] if tag.endswith("?") else tag
                assert base in _TAG_BASES, tag
