"""The shipped tree must satisfy its own linter — and the linter must
actually notice when it stops being true.

The gate scan (``src/repro`` plus ``benchmarks``, as CI runs it) happens
once per session. The seeded probes are the mutation trial of
docs/static-analysis.md kept alive: one realistic violation per rule in
a real module. The per-file rules see only the mutated file, written
under its dotted path; the three schema mutations need every emitter,
so they scan one shared copy of ``src/repro``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisReport, run_analysis
from repro.analysis.facts import collect_facts
from repro.obs.events import (
    check_field_value,
    field_types,
    known_event_types,
    required_fields,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
ALLOWLIST = REPO_ROOT / "analysis-allowlist.txt"
EVENTS = SRC / "obs" / "events.py"


def _analyze(*roots: Path) -> AnalysisReport:
    return run_analysis(list(roots), allowlist_path=ALLOWLIST)


@pytest.fixture(scope="module")
def gate_report() -> AnalysisReport:
    """The scan CI gates on: the library tree plus the benchmark
    harness, from the repo root with relative paths (the allowlist's
    ``benchmarks/*`` glob is repo-relative)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return _analyze(Path("src/repro"), Path("benchmarks"))


@pytest.fixture(scope="module")
def shipped_copy(tmp_path_factory):
    """A copy of src/repro (same dotted module names), shared by the
    schema mutations: the analysis re-extracts only the file a mutation
    changed (pass 1 is reused for an unchanged file at the same path)."""
    copy = tmp_path_factory.mktemp("tree") / "src" / "repro"
    shutil.copytree(SRC, copy)
    return copy


@pytest.fixture()
def src_copy(shipped_copy):
    """The shared copy, with ``obs/events.py`` put back afterwards."""
    events = shipped_copy / "obs" / "events.py"
    source = events.read_text()
    yield shipped_copy
    events.write_text(source)


class TestShippedTreeIsClean:
    def test_no_findings_no_errors(self, gate_report):
        assert gate_report.errors == []
        assert [d.render() for d in gate_report.diagnostics] == []

    def test_every_allowlist_entry_earns_its_keep(self, gate_report):
        # Stale allowlist entries are invisible risk: they would mask a
        # future real violation. Each checked-in entry must match today.
        unused = [e.pattern for e in gate_report.allowlist if e.matches == 0]
        assert unused == []

    def test_inline_suppressions_all_used(self, gate_report):
        assert all(s.used for s in gate_report.suppressions)


class TestSchemaAgreement:
    def test_ast_view_matches_runtime_view(self):
        # The linter parses EVENT_SCHEMA from source; the runtime
        # validator imports it. Both views must name the same types with
        # the same required fields, or R4 and obs.validate could give
        # contradictory verdicts on the same tree.
        facts = collect_facts(EVENTS, EVENTS.as_posix())
        parsed = {d.event_type: d.fields for d in facts.schema_defs}
        assert sorted(parsed) == list(known_event_types())
        for event_type, fields in parsed.items():
            assert fields == required_fields(event_type)

    def test_ast_types_match_runtime_types(self):
        # Same pin for the typed layer: the per-field tags the linter
        # parses out of EVENT_SCHEMA must be exactly the tags the
        # runtime validator enforces.
        facts = collect_facts(EVENTS, EVENTS.as_posix())
        for schema_def in facts.schema_defs:
            assert schema_def.types is not None, schema_def.event_type
            assert schema_def.type_map() == field_types(schema_def.event_type)

    @pytest.mark.parametrize(
        ("tag", "value", "ok"),
        [
            ("int", 3, True),
            ("int", True, False),  # bool is not an int here
            ("float", 3, True),  # ints coerce into float fields
            ("float", 1.5, True),
            ("float", None, False),
            ("float?", None, True),
            ("str", "x", True),
            ("str", 1, False),
            ("bool", True, True),
            ("bool", 1, False),
            ("list", (1, 2), True),  # tuples pass as list payloads
            ("list", [1], True),
            ("dict", {}, True),
            ("dict", [], False),
            ("any", object(), True),
            ("any?", None, True),
        ],
    )
    def test_runtime_tag_semantics_mirror_static_ones(self, tag, value, ok):
        # The runtime check and the linter's _tag_compatible() implement
        # the same lattice (int-into-float, bool excluded from numerics,
        # trailing '?' for nullable). Pin the runtime side value-by-value
        # so the two can't drift apart silently.
        assert check_field_value(tag, value) is ok

    def test_removing_a_schema_entry_fails_r4(self, src_copy):
        events = src_copy / "obs" / "events.py"
        source = events.read_text()
        needle = '"span.start": {"span": "int", "name": "str"},'
        assert needle in source
        events.write_text(source.replace(needle, ""))
        report = _analyze(src_copy)
        r4 = [d for d in report.diagnostics if d.rule == "R4"]
        assert r4, "dropping a schema entry must trip R4"
        assert any("span.start" in d.message for d in r4)

    def test_emitting_unregistered_type_fails_r4(self, src_copy):
        events = src_copy / "obs" / "events.py"
        with events.open("a") as handle:
            handle.write(
                "\n\ndef _schema_drift_probe(log: EventLog) -> None:\n"
                '    """Mutation-test probe."""\n'
                '    log.emit("not.a.registered.event", x=1)\n'
            )
        report = _analyze(src_copy)
        r4 = [d for d in report.diagnostics if d.rule == "R4"]
        assert any(
            "'not.a.registered.event' is not declared" in d.message
            for d in r4
        )

    def test_dead_schema_entry_fails_r4(self, src_copy):
        events = src_copy / "obs" / "events.py"
        source = events.read_text()
        needle = '"sim.run.start": {"until": "float?"},'
        assert needle in source
        events.write_text(
            source.replace(
                needle,
                needle + '\n    "never.emitted": {"x": "int"},',
            )
        )
        report = _analyze(src_copy)
        r4 = [d for d in report.diagnostics if d.rule == "R4"]
        assert any("'never.emitted' has no emitter" in d.message for d in r4)


#: Modules a probe scans, unchanged, beside the mutated one: R10 looks
#: a worker's payload type up in whichever scanned module declares it.
_COMPANIONS = {"chaos/runner.py": ("chaos/campaign.py",)}


def _probe(
    tmp_path: Path, relative: str, old: str, new: str
) -> AnalysisReport:
    """Scan one real module with ``old`` replaced by ``new`` (``old``
    empty: ``new`` is appended), under its dotted path with only its
    :data:`_COMPANIONS` beside it."""
    scanned = []
    for name in (relative, *_COMPANIONS.get(relative, ())):
        target = tmp_path / "src" / "repro" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        package = target.parent
        while package != tmp_path / "src":
            (package / "__init__.py").touch()
            package = package.parent
        source = (SRC / name).read_text()
        if name == relative:
            assert old in source
            source = source.replace(old, new, 1) if old else source + new
        target.write_text(source)
        scanned.append(target)
    return _analyze(*scanned)


class TestSeededViolationsAreCaught:
    """A fresh violation of any rule but R4 (above) exits dirty, on a
    scan of the one file it sits in."""

    @pytest.mark.parametrize(
        ("relative", "old", "new", "rule"),
        [
            (
                "sim/kernel.py",
                "",
                "\n\ndef _probe_wallclock() -> float:\n"
                '    """Mutation-test probe."""\n'
                "    import time\n\n"
                "    return time.time()\n",
                "R1",
            ),
            (
                "laar/middleware.py",
                "",
                "\n\ndef _probe_unseeded() -> object:\n"
                '    """Mutation-test probe."""\n'
                "    import random\n\n"
                "    return random.Random()\n",
                "R2",
            ),
            (
                "core/strategy.py",
                "",
                "\n\ndef _probe_ordering(hosts: list) -> list:\n"
                '    """Mutation-test probe."""\n'
                "    return [h for h in set(hosts)]\n",
                "R3",
            ),
            (
                "chaos/campaign.py",
                "@dataclass(frozen=True)\nclass CampaignSpec:",
                "@dataclass\nclass CampaignSpec:",
                "R5",
            ),
            (
                "sim/kernel.py",
                "",
                "\n\ndef _probe_identity(x: object) -> int:\n"
                '    """Mutation-test probe."""\n'
                "    return id(x)\n",
                "R6",
            ),
            (
                "dsps/platform.py",
                "import math\n",
                "import math\nimport multiprocessing\n",
                "R7",
            ),
            (
                "dsps/platform.py",
                "        jitter = self._config.arrival_jitter\n",
                "        # repro: allow[R1] reason=nothing to absorb here\n"
                "        jitter = self._config.arrival_jitter\n",
                "R8",
            ),
            (
                "chaos/runner.py",
                "def run_campaign(spec: CampaignSpec) -> dict[str, Any]:",
                "def run_campaign(spec) -> dict[str, Any]:",
                "R10",
            ),
        ],
    )
    def test_seeded_violation_fires(self, tmp_path, relative, old, new, rule):
        clean = _probe(tmp_path / "clean", relative, old, old)
        assert not [d for d in clean.diagnostics if d.rule == rule]
        report = _probe(tmp_path / "seeded", relative, old, new)
        fired = [d for d in report.diagnostics if d.rule == rule]
        assert fired, f"seeded {rule} violation in {relative} not caught"
        assert not report.ok
