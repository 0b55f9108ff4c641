"""JSONL access log for the solver daemon: one record per HTTP request.

The trace file answers "what happened inside this request"; the access
log answers "what happened to every request" — a flat, greppable,
schema-stable stream that survives log shipping. Each line is one JSON
object (schema ``scwsc-access/1``):

========================  ===================================================
field                     meaning
========================  ===================================================
schema                    always ``scwsc-access/1``
ts                        wall-clock unix seconds when the response was sent
trace_id                  the request's 32-hex trace id (accepted from the
                          client's ``traceparent`` or minted at the edge)
method / endpoint         HTTP method and route path
status                    HTTP response code (``null`` if the client left
                          before one was written)
duration_seconds          request wall time at the edge
shed_reason               admission shed reason for 429s, else ``null``
deadline                  the request's end-to-end budget (solve endpoints)
queue_seconds             budget spent waiting before the first dispatch
solve_seconds             budget spent inside workers (all attempts)
requeue_seconds           budget spent waiting between attempts
requeues                  pool requeue count for the accepted answer
solve_status              pool outcome (``ok`` / ``fallback`` / ...) or
                          ``null`` for non-solve requests
error                     terminal error string, else ``null``
========================  ===================================================

Validation is strict on the writer side (:func:`validate_access_record`
raises on a malformed record before it is written), so consumers can
trust every line that made it to disk; :func:`validate_access_file` is
the read-side check used by tests and CI over shipped artifacts.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Iterable

from repro.errors import ValidationError

__all__ = [
    "ACCESS_SCHEMA",
    "AccessLog",
    "iter_access_records",
    "validate_access_record",
    "validate_access_file",
]

ACCESS_SCHEMA = "scwsc-access/1"

#: field name -> (required, allowed types). ``None`` is always allowed
#: for optional fields.
_FIELDS: dict[str, tuple[bool, tuple[type, ...]]] = {
    "schema": (True, (str,)),
    "ts": (True, (int, float)),
    "trace_id": (True, (str,)),
    "method": (True, (str,)),
    "endpoint": (True, (str,)),
    "status": (False, (int,)),
    "duration_seconds": (True, (int, float)),
    "shed_reason": (False, (str,)),
    "deadline": (False, (int, float)),
    "queue_seconds": (False, (int, float)),
    "solve_seconds": (False, (int, float)),
    "requeue_seconds": (False, (int, float)),
    "requeues": (False, (int,)),
    "solve_status": (False, (str,)),
    "error": (False, (str,)),
}


def validate_access_record(record: Any) -> list[str]:
    """Problems with one access record; empty list when valid."""
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    problems: list[str] = []
    if record.get("schema") != ACCESS_SCHEMA:
        problems.append(
            f"schema must be {ACCESS_SCHEMA!r}, got {record.get('schema')!r}"
        )
    for name, (required, types) in _FIELDS.items():
        if name not in record or record[name] is None:
            if required and record.get(name) is None:
                problems.append(f"missing required field {name!r}")
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            problems.append(
                f"field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    unknown = set(record) - set(_FIELDS)
    if unknown:
        problems.append(f"unknown fields {sorted(unknown)}")
    trace_id = record.get("trace_id")
    if isinstance(trace_id, str) and (
        len(trace_id) != 32
        or any(c not in "0123456789abcdef" for c in trace_id)
    ):
        problems.append(f"trace_id must be 32 lowercase hex chars, got {trace_id!r}")
    return problems


def validate_access_file(path: str) -> int:
    """Validate every line of a JSONL access log; returns the record
    count, raising :class:`ValidationError` on the first bad line."""
    count = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValidationError(
                    f"{path}:{lineno}: not valid JSON: {error}"
                ) from error
            problems = validate_access_record(record)
            if problems:
                raise ValidationError(
                    f"{path}:{lineno}: " + "; ".join(problems)
                )
            count += 1
    return count


class AccessLog:
    """Thread-safe JSONL writer with write-time schema validation.

    Handler threads log concurrently; each record is validated, then
    written and flushed under one lock so lines never interleave and a
    SIGKILL'd daemon leaves a valid prefix.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def log(self, **fields: Any) -> dict:
        """Build, validate, write, and return one record."""
        record = {"schema": ACCESS_SCHEMA, "ts": round(time.time(), 3)}
        record.update(
            {name: value for name, value in fields.items() if value is not None}
        )
        problems = validate_access_record(record)
        if problems:
            raise ValidationError(
                "refusing to write malformed access record: "
                + "; ".join(problems)
            )
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
        return record

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - nothing left to do
                pass


def iter_access_records(path: str) -> Iterable[dict]:
    """Yield parsed records from a JSONL access log (no validation)."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def main(argv: list[str] | None = None) -> int:
    import sys

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(
            "usage: python -m repro.serve.accesslog ACCESS.jsonl",
            file=sys.stderr,
        )
        return 2
    try:
        count = validate_access_file(args[0])
    except (OSError, ValueError, ValidationError) as error:
        print(f"{args[0]}: {error}", file=sys.stderr)
        return 1
    print(f"{args[0]}: ok ({count} record(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
