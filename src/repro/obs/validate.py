"""Event-stream schema validator (``python -m repro.obs.validate``).

Reads one or more JSONL event files exported by
:meth:`repro.obs.events.EventLog.to_jsonl` and checks every line
against :data:`repro.obs.events.EVENT_SCHEMA`:

* the line parses as a JSON object with ``seq``, ``t`` and ``type``
  (``NaN`` and ``Infinity``, which :func:`json.loads` accepts, are not
  JSON and are rejected);
* the event type is known;
* every required payload field for that type is present;
* every present payload field satisfies its declared type tag
  (``float`` accepts ints, ``int``/``float`` reject bools, a trailing
  ``?`` accepts ``None``) — the runtime twin of the static R4 check,
  pinned equal to it by ``tests/analysis/test_selfcheck.py``;
* ``seq`` values are strictly increasing within one file.

:func:`repro.driver.deliver` runs it over every stream a scenario writes,
so a new event type that never got a schema entry fails the run instead
of silently shipping unvalidated telemetry.

Exit status: 0 when every file is clean, 1 otherwise (problems are
listed on stdout, one per line).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.events import EVENT_SCHEMA, check_field_value

__all__ = ["validate_lines", "validate_file", "main"]


def _reject_constant(token: str):
    raise json.JSONDecodeError(f"{token} is not a JSON value", token, 0)


def validate_lines(lines, origin: str = "<stream>") -> list[str]:
    """Validate JSONL lines; returns human-readable problem strings."""
    problems: list[str] = []
    last_seq = -1
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{origin}:{lineno}"
        try:
            record = json.loads(line, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            problems.append(f"{where}: expected a JSON object")
            continue
        missing_core = [k for k in ("seq", "t", "type") if k not in record]
        if missing_core:
            problems.append(
                f"{where}: missing core field(s) {', '.join(missing_core)}"
            )
            continue
        type_ = record["type"]
        declared = EVENT_SCHEMA.get(type_)
        if declared is None:
            problems.append(f"{where}: unknown event type {type_!r}")
            continue
        missing = sorted(declared.keys() - record.keys())
        if missing:
            problems.append(
                f"{where}: {type_} missing field(s) {', '.join(missing)}"
            )
        for field, tag in sorted(declared.items()):
            if field not in record:
                continue
            value = record[field]
            if not check_field_value(tag, value):
                problems.append(
                    f"{where}: {type_} field {field!r} is"
                    f" {type(value).__name__} ({value!r}), schema"
                    f" declares {tag}"
                )
        seq = record["seq"]
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                f"{where}: seq {seq!r} not strictly increasing "
                f"(previous {last_seq})"
            )
        else:
            last_seq = seq
    return problems


def validate_file(path) -> list[str]:
    """Validate one JSONL file; returns problem strings (empty = clean)."""
    path = Path(path)
    return validate_lines(path.read_text().splitlines(), origin=str(path))


def main(argv=None) -> int:
    """CLI entry point: validate each file argument, print problems."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.obs.validate FILE.jsonl [FILE...]")
        return 2
    total_problems = 0
    for arg in args:
        path = Path(arg)
        if not path.exists():
            print(f"{path}: no such file")
            total_problems += 1
            continue
        problems = validate_file(path)
        total_problems += len(problems)
        for problem in problems:
            print(problem)
        if not problems:
            n = sum(
                1
                for line in path.read_text().splitlines()
                if line.strip()
            )
            print(f"{path}: OK ({n} events)")
    return 1 if total_problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
