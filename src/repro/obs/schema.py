"""Trace record schema (``scwsc-trace/1``) and validator.

CI's trace-smoke step and ``scwsc trace validate`` run every JSONL line
through :func:`validate_record`; a trace file that fails here is a bug
in an emitter, not in the consumer. The module doubles as a CLI::

    python -m repro.obs.schema out.jsonl

exiting non-zero (with one line per problem) when any record is invalid.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.obs.trace import SCHEMA

_RECORD_TYPES = frozenset(
    {"meta", "span", "event", "metrics", "profile", "quality"}
)

#: Legal ``profile_kind`` values for ``profile`` records.
PROFILE_KINDS = frozenset({"cprofile", "memory", "rss"})

_NUMBER = (int, float)


def _check_attrs(record: dict[str, Any], problems: list[str]) -> None:
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        problems.append(f"attrs must be an object, got {type(attrs).__name__}")


def validate_record(record: Any) -> list[str]:
    """Return a list of problems (empty when the record is valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    rtype = record.get("type")
    if rtype not in _RECORD_TYPES:
        return [f"unknown record type {rtype!r}"]

    if rtype == "meta":
        if record.get("schema") != SCHEMA:
            problems.append(
                f"meta.schema must be {SCHEMA!r}, got {record.get('schema')!r}"
            )
        if not isinstance(record.get("wall_time_unix"), _NUMBER):
            problems.append("meta.wall_time_unix must be a number")
        _check_attrs(record, problems)
        return problems

    if rtype == "span":
        if not isinstance(record.get("name"), str) or not record.get("name"):
            problems.append("span.name must be a non-empty string")
        if not isinstance(record.get("span_id"), (str, int)):
            problems.append("span.span_id must be a string or int")
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, (str, int)):
            problems.append("span.parent_id must be a string, int, or null")
        for key in ("t_start", "t_end", "duration"):
            if not isinstance(record.get(key), _NUMBER):
                problems.append(f"span.{key} must be a number")
        if (
            isinstance(record.get("t_start"), _NUMBER)
            and isinstance(record.get("t_end"), _NUMBER)
            and record["t_end"] < record["t_start"]
        ):
            problems.append("span.t_end must be >= span.t_start")
        _check_attrs(record, problems)
        return problems

    if rtype == "event":
        if not isinstance(record.get("name"), str) or not record.get("name"):
            problems.append("event.name must be a non-empty string")
        if not isinstance(record.get("t"), _NUMBER):
            problems.append("event.t must be a number")
        _check_attrs(record, problems)
        return problems

    if rtype == "profile":
        if not isinstance(record.get("t"), _NUMBER):
            problems.append("profile.t must be a number")
        kind = record.get("profile_kind")
        if kind not in PROFILE_KINDS:
            problems.append(
                f"profile.profile_kind must be one of "
                f"{sorted(PROFILE_KINDS)}, got {kind!r}"
            )
        if not isinstance(record.get("scope"), str) or not record.get("scope"):
            problems.append("profile.scope must be a non-empty string")
        if not isinstance(record.get("data"), dict):
            problems.append("profile.data must be an object")
        span_id = record.get("span_id")
        if span_id is not None and not isinstance(span_id, (str, int)):
            problems.append("profile.span_id must be a string, int, or null")
        return problems

    if rtype == "quality":
        if not isinstance(record.get("t"), _NUMBER):
            problems.append("quality.t must be a number")
        if (
            not isinstance(record.get("algorithm"), str)
            or not record.get("algorithm")
        ):
            problems.append("quality.algorithm must be a non-empty string")
        quality = record.get("quality")
        if not isinstance(quality, dict):
            problems.append("quality.quality must be an object")
        else:
            for key, value in quality.items():
                if value is not None and not isinstance(
                    value, (bool, int, float)
                ):
                    problems.append(
                        f"quality.quality[{key!r}] must be a number, "
                        f"bool, or null"
                    )
        return problems

    # metrics
    if not isinstance(record.get("t"), _NUMBER):
        problems.append("metrics.t must be a number")
    if not isinstance(record.get("metrics"), dict):
        problems.append("metrics.metrics must be an object")
    return problems


def find_orphan_spans(records: list[Any]) -> list[str]:
    """Span ids whose ``parent_id`` names a span that never appears.

    The stitching pipeline (worker replay and re-parenting) guarantees
    zero orphans in a well-formed trace; an orphan means a replay's
    ``root_parent`` or a worker's trace truncation went wrong, which the
    shape-only schema check cannot see. Order follows the file; each id reports
    once.
    """
    span_ids = {
        record.get("span_id")
        for record in records
        if isinstance(record, dict) and record.get("type") == "span"
    }
    orphans: list[str] = []
    for record in records:
        if not isinstance(record, dict) or record.get("type") != "span":
            continue
        parent = record.get("parent_id")
        if parent is not None and parent not in span_ids:
            orphans.append(
                f"span {record.get('span_id')!r} has parent {parent!r} "
                f"which never appears"
            )
    return orphans


def validate_trace_file(path: str, strict: bool = False) -> list[str]:
    """Validate every line of a JSONL trace; returns ``line N: problem``
    strings. An empty file is a problem (a trace always has its meta
    record), as is a missing leading meta record. With ``strict=True``
    the span tree is also checked for orphans (every ``parent_id`` must
    name a span present in the file)."""
    problems: list[str] = []
    n_records = 0
    records: list[Any] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            n_records += 1
            records.append(record)
            if n_records == 1 and record.get("type") != "meta":
                problems.append(
                    f"line {lineno}: first record must be type 'meta', "
                    f"got {record.get('type')!r}"
                )
            for problem in validate_record(record):
                problems.append(f"line {lineno}: {problem}")
    if n_records == 0:
        problems.append("trace file contains no records")
    if strict:
        problems.extend(
            f"orphan: {orphan}" for orphan in find_orphan_spans(records)
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    strict = "--strict" in args
    if strict:
        args.remove("--strict")
    if len(args) != 1:
        print(
            "usage: python -m repro.obs.schema [--strict] TRACE.jsonl",
            file=sys.stderr,
        )
        return 2
    problems = validate_trace_file(args[0], strict=strict)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{args[0]}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{args[0]}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
