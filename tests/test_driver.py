"""The scenario driver's delivery contract, tested where it lives.

Every scenario subcommand (``obs``, ``chaos run``, ``fleet``) ends in
:func:`repro.driver.deliver`, so the two failure exits are pinned here
once instead of per subcommand — and the tenant fleet fans out
through :func:`repro.driver.run_tenants`, whose promise that the worker
count changes no byte is generated here.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import deliver, run_tenants, take_streams
from repro.fleet.dataplane import DataplaneParams

CLEAN = '{"seq":0,"t":0.0,"type":"host.crash","host":"h0"}\n'
UNDECLARED = '{"seq":0,"t":0.0,"type":"never.declared","x":1}\n'


def test_undeclared_event_type_fails_the_run_naming_the_file(
    tmp_path, capsys
):
    code = deliver(
        tmp_path / "run",
        "report.json",
        {"ok": True},
        "rendered",
        streams=[(0, CLEAN), (1, UNDECLARED), (2, CLEAN)],
    )
    assert code == 1
    captured = capsys.readouterr()
    bad = tmp_path / "run" / "events-1.jsonl"
    assert f"{bad}:1: unknown event type 'never.declared'" in captured.err
    assert captured.out == ""
    # Delivery stops at the first bad stream: nothing after it ships.
    assert bad.read_text() == UNDECLARED
    assert not (tmp_path / "run" / "events-2.jsonl").exists()
    assert not (tmp_path / "run" / "report.json").exists()


def test_tenant_violations_write_artifacts_then_exit_one(tmp_path, capsys):
    digests = [
        {"tenant": 0, "jsonl": CLEAN},
        {"tenant": 1, "jsonl": CLEAN},
    ]
    violations = [
        {"tenant": 1, "violation": "conservation pe00#0: received=3"},
        {"tenant": 1, "violation": "no-output: sinks received nothing"},
    ]
    document = {"fleet": {"ok": False}, "tenants": digests}
    code = deliver(
        tmp_path / "run",
        "dataplane.json",
        document,
        "dataplane: 2 tenants",
        streams=take_streams(digests, "tenant"),
        violations=violations,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "violation (tenant 1): conservation pe00#0: received=3",
        "violation (tenant 1): no-output: sinks received nothing",
    ]
    assert captured.out == "dataplane: 2 tenants\n"  # no "artifacts written"
    for tenant in (0, 1):
        stream = tmp_path / "run" / f"events-{tenant}.jsonl"
        assert stream.read_text() == CLEAN
    written = json.loads((tmp_path / "run" / "dataplane.json").read_text())
    assert written == {
        "fleet": {"ok": False},
        "tenants": [{"tenant": 0}, {"tenant": 1}],
    }


def test_clean_run_names_streams_and_reports_the_directory(tmp_path, capsys):
    code = deliver(
        tmp_path / "run",
        "report.json",
        {"b": 1, "a": 2},
        "rendered",
        streams=[(None, CLEAN), ("worst", CLEAN)],
        sort_keys=False,
    )
    assert code == 0
    assert capsys.readouterr().out == (
        f"rendered\nartifacts written to {tmp_path / 'run'}\n"
    )
    assert (tmp_path / "run" / "events.jsonl").exists()
    assert (tmp_path / "run" / "events-worst.jsonl").exists()
    text = (tmp_path / "run" / "report.json").read_text()
    assert text == '{\n  "b": 1,\n  "a": 2\n}\n'


@settings(max_examples=15, deadline=None)
@given(
    tenants=st.integers(2, 5),
    distinct_apps=st.integers(1, 3),
    base_seed=st.integers(0, 2**16),
    duration=st.floats(4.0, 8.0),
    chaos_every=st.integers(1, 3),
    batching=st.booleans(),
)
def test_worker_count_changes_no_digest(
    tenants, distinct_apps, base_seed, duration, chaos_every, batching
):
    """jobs=1 (in-process, submission order) and jobs=2 (a process pool)
    give the same fleet hash and the same digest for every tenant."""
    params = DataplaneParams(
        tenants=tenants,
        distinct_apps=distinct_apps,
        base_seed=base_seed,
        duration=duration,
        chaos_every=chaos_every,
        batching=batching,
    )
    serial_summary, serial = run_tenants(params, jobs=1)
    pooled_summary, pooled = run_tenants(params, jobs=2)
    assert serial_summary["fleet_sha256"] == pooled_summary["fleet_sha256"]
    assert serial == pooled
