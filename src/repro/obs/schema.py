"""Trace record schema (``scwsc-trace/1``) and validator.

CI's trace-smoke and serve-smoke steps and ``scwsc trace validate`` run
every JSONL line through :func:`validate_record`; a trace file that
fails here is a bug in an emitter, not in the consumer.

``access`` records are the serve daemon's one summary per HTTP request
(:func:`repro.obs.trace.access`); :data:`ACCESS_FIELDS` is their
field table:

========================  ===================================================
field                     meaning
========================  ===================================================
t                         tracer clock when the response was about to be
                          written
ts                        wall-clock unix seconds at the same moment
trace_id                  the request's 32-hex trace id (accepted from the
                          client's ``traceparent`` or minted at the edge)
method / endpoint         HTTP method and route path
status                    HTTP response code (``null`` if the client left
                          before one was written)
duration_seconds          request wall time at the edge
shed_reason               admission shed reason for 429s
deadline                  the request's end-to-end budget (solve endpoints)
queue_seconds             budget spent waiting before the first dispatch
solve_seconds             budget spent inside workers (all attempts)
requeue_seconds           budget spent waiting between attempts
requeues                  pool requeue count for the accepted answer
solve_status              pool outcome (``ok`` / ``fallback`` / ...)
error                     terminal error string
========================  ===================================================

Optional fields are left out when they do not apply.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.trace import SCHEMA

_RECORD_TYPES = frozenset(
    {"meta", "span", "event", "metrics", "access", "quality"}
)

_NUMBER = (int, float)

#: ``access`` record field -> (required, allowed types); an optional
#: field may also be absent or null.
ACCESS_FIELDS: dict[str, tuple[bool, tuple[type, ...]]] = {
    "type": (True, (str,)),
    "t": (True, _NUMBER),
    "ts": (True, _NUMBER),
    "trace_id": (True, (str,)),
    "method": (True, (str,)),
    "endpoint": (True, (str,)),
    "status": (False, (int,)),
    "duration_seconds": (True, _NUMBER),
    "shed_reason": (False, (str,)),
    "deadline": (False, _NUMBER),
    "queue_seconds": (False, _NUMBER),
    "solve_seconds": (False, _NUMBER),
    "requeue_seconds": (False, _NUMBER),
    "requeues": (False, (int,)),
    "solve_status": (False, (str,)),
    "error": (False, (str,)),
}


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

    if rtype == "access":
        return _access_problems(record)

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


def _access_problems(record: dict[str, Any]) -> list[str]:
    problems: list[str] = []
    for name, (required, types) in ACCESS_FIELDS.items():
        value = record.get(name)
        if value is None:
            if required:
                problems.append(f"access.{name} is required")
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            problems.append(
                f"access.{name} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    unknown = set(record) - set(ACCESS_FIELDS)
    if unknown:
        problems.append(f"access has unknown fields {sorted(unknown)}")
    trace_id = record.get("trace_id")
    if isinstance(trace_id, str) and (
        len(trace_id) != 32
        or any(c not in "0123456789abcdef" for c in trace_id)
    ):
        problems.append(
            f"access.trace_id must be 32 lowercase hex chars, got {trace_id!r}"
        )
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
