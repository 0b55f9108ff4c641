"""Access-log schema: write-time validation, file validation, round trip."""

from __future__ import annotations

import json
import subprocess
import sys
import threading

import pytest

from repro.errors import ValidationError
from repro.serve.accesslog import (
    ACCESS_SCHEMA,
    AccessLog,
    iter_access_records,
    validate_access_file,
    validate_access_record,
)

VALID = {
    "schema": ACCESS_SCHEMA,
    "ts": 1700000000.0,
    "trace_id": "ab" * 16,
    "method": "POST",
    "endpoint": "/solve",
    "status": 200,
    "duration_seconds": 0.125,
}


class TestValidateRecord:
    def test_valid_record_passes(self):
        assert validate_access_record(VALID) == []

    def test_missing_required_field(self):
        record = dict(VALID)
        del record["trace_id"]
        assert any("trace_id" in p for p in validate_access_record(record))

    def test_wrong_schema_value(self):
        record = dict(VALID, schema="nope/9")
        assert any("schema" in p for p in validate_access_record(record))

    def test_bad_trace_id(self):
        record = dict(VALID, trace_id="XYZ")
        assert any("trace_id" in p for p in validate_access_record(record))

    def test_unknown_field_rejected(self):
        record = dict(VALID, surprise=1)
        assert any("surprise" in p for p in validate_access_record(record))

    def test_bool_is_not_a_number(self):
        record = dict(VALID, duration_seconds=True)
        assert any(
            "duration_seconds" in p for p in validate_access_record(record)
        )

    def test_non_dict_rejected(self):
        assert validate_access_record([1, 2]) != []


class TestAccessLog:
    def test_log_writes_validated_jsonl(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(str(path))
        record = log.log(
            trace_id="cd" * 16,
            method="GET",
            endpoint="/metrics",
            status=200,
            duration_seconds=0.001,
            error=None,  # None values are dropped, not written
        )
        log.close()
        assert record["schema"] == ACCESS_SCHEMA
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert "error" not in parsed
        assert validate_access_file(str(path)) == 1

    def test_malformed_record_refused_before_write(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(str(path))
        with pytest.raises(ValidationError):
            log.log(method="GET", endpoint="/x")  # no trace_id/duration
        log.close()
        assert path.read_text() == ""

    def test_concurrent_writers_never_interleave(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(str(path))

        def write(worker: int) -> None:
            for i in range(50):
                log.log(
                    trace_id=f"{worker:02x}{i:02x}" * 8,
                    method="POST",
                    endpoint="/solve",
                    status=200,
                    duration_seconds=0.01,
                )

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        assert validate_access_file(str(path)) == 200
        assert len(list(iter_access_records(str(path)))) == 200

    def test_validate_file_reports_line_number(self, tmp_path):
        path = tmp_path / "access.jsonl"
        path.write_text(
            json.dumps(VALID) + "\n" + '{"schema": "scwsc-access/1"}\n'
        )
        with pytest.raises(ValidationError, match=":2"):
            validate_access_file(str(path))

    def test_module_cli_runs_without_runtime_warning(self, tmp_path):
        # The package must not import the module before runpy runs it.
        path = tmp_path / "access.jsonl"
        path.write_text(json.dumps(VALID) + "\n")
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.serve.accesslog", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        assert "ok (1 record(s))" in completed.stdout
