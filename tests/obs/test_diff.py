"""Run-to-run SLO diff: alignment, phase attribution, rendering."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import diff_runs, render_diff
from repro.obs.diff import load_slo_document


def _window(index, phase="steady", bad=0.0, output=100, drops=0, p95=0.01):
    return {
        "window": index,
        "start": index * 5.0,
        "end": (index + 1) * 5.0,
        "phase": phase,
        "availability": 1.0 - bad / 5.0,
        "bad_seconds": bad,
        "input": output,
        "output": output,
        "drops": drops,
        "failovers": 0,
        "lat_count": output,
        "lat_p50": p95 / 2,
        "lat_p95": p95,
        "lat_max": p95,
    }


def _tenant(tenant, windows, verdict="met", alerts=()):
    bad = sum(w["bad_seconds"] for w in windows)
    horizon = windows[-1]["end"] if windows else 0.0
    return {
        "tenant": tenant,
        "app": "chain",
        "slo": {
            "tenant": tenant,
            "objective": 0.999,
            "window_seconds": 5.0,
            "horizon": horizon,
            "n_windows": len(windows),
            "availability": 1.0 - (bad / horizon if horizon else 0.0),
            "bad_seconds": bad,
            "budget_seconds": 0.001 * horizon,
            "burned": 0.0,
            "verdict": verdict,
            "trusted": True,
            "alerts": list(alerts),
            "input": sum(w["input"] for w in windows),
            "output": sum(w["output"] for w in windows),
            "drops": sum(w["drops"] for w in windows),
            "latency": {"count": 0, "mean": None, "p50": None,
                        "p95": None, "max": None},
            "failover": {"count": 0, "mean": None, "p50": None,
                         "p95": None, "max": None},
            "windows": windows,
        },
    }


def _with(tenant, **slo):
    tenant["slo"].update(slo)
    return tenant


def _doc(*tenants):
    return {"params": {}, "fleet": {}, "tenants": list(tenants)}


class TestDiffRuns:
    def test_rejects_non_artifact(self):
        with pytest.raises(ReproError, match="tenants"):
            diff_runs({"params": {}}, _doc())

    @pytest.mark.parametrize(
        "tenants, name",
        [
            # Well-formed JSON, wrong shape: each was a KeyError, a
            # TypeError or an AttributeError out of diff_runs.
            ([{"tenant": "0", "slo": {"availability": 1.0}}], "0"),
            ([{"slo": {}}], "entry 0"),
            ([3], "entry 0"),
            ([_tenant("1", []), {"tenant": "7", "slo": []}], "7"),
            ([_with(_tenant("0", []), output="lots")], "0"),
            ([_with(_tenant("0", []), windows=[{"window": 0}])], "0"),
            ([_tenant("5", [_window(0)], alerts=[{"rule": "burn"}])], "5"),
        ],
    )
    def test_unreadable_tenant_is_a_typed_error_naming_file_and_tenant(
        self, tenants, name, tmp_path
    ):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(_doc(*tenants)))
        with pytest.raises(ReproError) as info:
            load_slo_document(path)
        assert str(info.value).startswith(
            f"slo artifact {path}: tenant {name} is unreadable: "
        )

    def test_tenant_alignment(self):
        doc_a = _doc(
            _tenant("0", [_window(0)]), _tenant("1", [_window(0)])
        )
        doc_b = _doc(
            _tenant("1", [_window(0)]), _tenant("2", [_window(0)])
        )
        diff = diff_runs(doc_a, doc_b)
        assert diff["tenants"] == {
            "common": 1, "only_a": ["0"], "only_b": ["2"],
        }

    def test_phase_attribution_and_transition_labels(self):
        doc_a = _doc(
            _tenant("0", [
                _window(0, "steady", output=100),
                _window(1, "failover", bad=1.0, output=80),
            ])
        )
        doc_b = _doc(
            _tenant("0", [
                _window(0, "steady", output=90),
                _window(1, "steady", output=100),
            ])
        )
        diff = diff_runs(doc_a, doc_b)
        assert set(diff["phases"]) == {"steady", "failover->steady"}
        transition = diff["phases"]["failover->steady"]
        assert transition["windows"] == 1
        assert transition["bad_seconds"]["delta"] == -1.0
        assert transition["output"]["delta"] == 20
        assert diff["totals"]["output"]["delta"] == 10

    def test_unaligned_windows_counted_not_diffed(self):
        doc_a = _doc(_tenant("0", [_window(0), _window(1), _window(2)]))
        doc_b = _doc(_tenant("0", [_window(0)]))
        diff = diff_runs(doc_a, doc_b)
        assert diff["unaligned_windows"] == 2
        assert diff["phases"]["steady"]["windows"] == 1

    def test_verdict_changes_and_top_movers_order(self):
        doc_a = _doc(
            _tenant("0", [_window(0)]),
            _tenant("1", [_window(0)]),
        )
        doc_b = _doc(
            _tenant("0", [_window(0, "failure", bad=2.0)], verdict="breached"),
            _tenant("1", [_window(0, output=150)]),
        )
        diff = diff_runs(doc_a, doc_b)
        assert diff["verdict_changes"] == [
            {"tenant": "0", "a": "met", "b": "breached"}
        ]
        # Tenant 0 moved bad_seconds (ranks first); tenant 1 only output.
        assert [m["tenant"] for m in diff["top_movers"]] == ["0", "1"]
        assert diff["top_movers"][0]["d_bad_seconds"] == 2.0

    def test_alert_counts_only_firing_edges(self):
        alerts = [
            {"rule": "availability-burn", "state": "firing", "window": 1,
             "burn_fast": 5.0, "burn_slow": 2.0},
            {"rule": "availability-burn", "state": "resolved", "window": 3,
             "burn_fast": 0.0, "burn_slow": 0.5},
        ]
        doc_a = _doc(_tenant("0", [_window(0)]))
        doc_b = _doc(_tenant("0", [_window(0)], alerts=alerts))
        diff = diff_runs(doc_a, doc_b)
        assert diff["totals"]["alerts"]["delta"] == 1

    def test_deterministic_serialization(self):
        doc = _doc(
            _tenant("3", [_window(0, "replan")]),
            _tenant("10", [_window(0)]),
            _tenant("2", [_window(0, "failure", bad=0.5)]),
        )
        first = json.dumps(diff_runs(doc, doc), sort_keys=True)
        second = json.dumps(diff_runs(doc, doc), sort_keys=True)
        assert first == second
        # Numeric tenant names sort numerically via the (len, str) key.
        movers = [m["tenant"] for m in diff_runs(doc, doc)["top_movers"]]
        assert movers == ["2", "3", "10"]


class TestRenderDiff:
    def test_renders_all_sections(self):
        doc_a = _doc(_tenant("0", [_window(0)]))
        doc_b = _doc(
            _tenant("0", [_window(0, "failure", bad=1.0)], verdict="breached")
        )
        text = render_diff(diff_runs(doc_a, doc_b))
        assert "== slo diff ==" in text
        assert "-- fleet totals (A -> B) --" in text
        assert "-- attribution by phase --" in text
        assert "steady->failure" in text
        assert "-- verdict changes --" in text
        assert "tenant 0: met -> breached" in text
        assert "-- top movers --" in text

    def test_identical_runs_render_zero_deltas(self):
        doc = _doc(_tenant("0", [_window(0), _window(1)]))
        text = render_diff(diff_runs(doc, doc))
        assert "(delta 0)" in text
        assert "verdict changes" not in text


class TestMigrationWindows:
    def test_counts_per_side_including_unaligned(self):
        doc_a = _doc(
            _tenant("0", [_window(0), _window(1, phase="migration", bad=0.5)])
        )
        doc_b = _doc(
            _tenant(
                "0",
                [
                    _window(0, phase="migration", bad=1.0),
                    _window(1, phase="migration", bad=0.25),
                    _window(2, phase="migration", bad=0.25),
                ],
            )
        )
        diff = diff_runs(doc_a, doc_b)
        migration = diff["migration_windows"]
        assert migration["windows"]["a"] == 1
        assert migration["windows"]["b"] == 3
        assert migration["windows"]["delta"] == 2
        assert migration["bad_seconds"]["a"] == 0.5
        assert migration["bad_seconds"]["b"] == 1.5
        assert migration["bad_seconds"]["delta"] == 1.0

    def test_zero_when_no_migration_phase(self):
        doc = _doc(_tenant("0", [_window(0), _window(1, phase="failover")]))
        diff = diff_runs(doc, doc)
        assert diff["migration_windows"]["windows"] == {
            "a": 0,
            "b": 0,
            "delta": 0,
        }

    def test_rendered_section_present(self):
        doc_a = _doc(_tenant("0", [_window(0)]))
        doc_b = _doc(_tenant("0", [_window(0, phase="migration", bad=0.5)]))
        text = render_diff(diff_runs(doc_a, doc_b))
        assert "-- migration windows (A -> B) --" in text
        assert "windows 0 -> 1 (delta 1)" in text
