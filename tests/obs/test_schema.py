"""Trace schema validation: records and whole files."""

from __future__ import annotations

from repro.obs.schema import (
    ACCESS_FIELDS,
    find_orphan_spans,
    validate_record,
    validate_trace_file,
)
from repro.obs.trace import SCHEMA


def _meta():
    return {"type": "meta", "schema": SCHEMA, "wall_time_unix": 1.0,
            "t": 0.0, "attrs": {}}


def _span(**overrides):
    record = {
        "type": "span", "name": "solve", "span_id": "s1",
        "parent_id": None, "t_start": 0.0, "t_end": 1.0,
        "duration": 1.0, "attrs": {},
    }
    record.update(overrides)
    return record


class TestValidateRecord:
    def test_valid_records_pass(self):
        assert validate_record(_meta()) == []
        assert validate_record(_span()) == []
        assert validate_record(
            {"type": "event", "name": "dispatch", "t": 0.5, "attrs": {}}
        ) == []
        assert validate_record(
            {"type": "metrics", "t": 1.0, "metrics": {}}
        ) == []

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) != []
        assert validate_record("span") != []

    def test_unknown_type_rejected(self):
        assert validate_record({"type": "wat"}) != []

    def test_wrong_schema_rejected(self):
        bad = _meta()
        bad["schema"] = "other/9"
        assert any("schema" in p for p in validate_record(bad))

    def test_span_time_ordering_enforced(self):
        bad = _span(t_start=2.0, t_end=1.0)
        assert any("t_end" in p for p in validate_record(bad))

    def test_span_missing_fields(self):
        bad = _span()
        del bad["span_id"]
        assert any("span_id" in p for p in validate_record(bad))
        bad = _span(attrs="nope")
        assert any("attrs" in p for p in validate_record(bad))

    def test_event_requires_name_and_time(self):
        assert validate_record({"type": "event", "name": "", "t": 0.0,
                                "attrs": {}}) != []
        assert validate_record({"type": "event", "name": "x", "t": "soon",
                                "attrs": {}}) != []


def _quality(**overrides):
    record = {
        "type": "quality", "t": 1.0, "algorithm": "cwsc",
        "quality": {"approx_ratio": 1.25, "coverage_slack": 0.1,
                    "sets_used": 3, "lp_bound": None, "feasible": True},
    }
    record.update(overrides)
    return record


class TestQualityRecords:
    def test_valid_quality_passes(self):
        assert validate_record(_quality()) == []

    def test_algorithm_required(self):
        assert any(
            "algorithm" in p
            for p in validate_record(_quality(algorithm=""))
        )

    def test_quality_must_be_numeric_object(self):
        assert any(
            "quality" in p
            for p in validate_record(_quality(quality="good"))
        )
        bad = _quality(quality={"approx_ratio": "about one"})
        assert any("approx_ratio" in p for p in validate_record(bad))

    def test_null_fields_allowed(self):
        record = _quality(
            quality={"approx_ratio": None, "lp_bound": None}
        )
        assert validate_record(record) == []


class TestCaptureReplayRoundTrip:
    def test_capture_replays_valid(self, tmp_path):
        """A worker-style capture, replayed into a file trace with
        request/attempt attrs, must validate end to end (strictly: the
        replayed spans form one tree) with every record carrying the
        merged attrs."""
        import json

        from repro.obs import trace as obs_trace

        with obs_trace.capture() as captured:
            with obs_trace.span("solve", backend="set"):
                with obs_trace.span("select"):
                    sum(range(2000))
                obs_trace.event("tracker_update", remaining=3)

        path = tmp_path / "replayed.jsonl"
        obs_trace.configure(str(path), command="test")
        try:
            obs_trace.replay(captured, request_id=7, attempt=2)
        finally:
            obs_trace.shutdown()

        problems = validate_trace_file(str(path), strict=True)
        assert problems == []
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        replayed = [r for r in records if r["type"] in ("span", "event")]
        assert len(replayed) == 3 and all(
            r["attrs"]["request_id"] == 7 and r["attrs"]["attempt"] == 2
            for r in replayed
        )
        assert {r["name"] for r in replayed} == {
            "solve", "select", "tracker_update"
        }


class TestValidateTraceFile:
    def test_valid_file(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_meta()) + "\n" + json.dumps(_span()) + "\n"
        )
        assert validate_trace_file(str(path)) == []

    def test_first_record_must_be_meta(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_span()) + "\n")
        problems = validate_trace_file(str(path))
        assert any("meta" in p for p in problems)

    def test_empty_file_is_a_problem(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert validate_trace_file(str(path)) != []

    def test_invalid_json_line_reported_with_lineno(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_meta()) + "\n{nope\n")
        problems = validate_trace_file(str(path))
        assert any(p.startswith("line 2:") for p in problems)


class TestOrphanSpans:
    def test_well_formed_tree_has_no_orphans(self):
        records = [
            _meta(),
            _span(span_id="root", parent_id=None),
            _span(span_id="child", parent_id="root"),
        ]
        assert find_orphan_spans(records) == []

    def test_dangling_parent_reported_once_in_order(self):
        records = [
            _span(span_id="a", parent_id="ghost"),
            _span(span_id="b", parent_id="a"),
            _span(span_id="c", parent_id="ghost2"),
        ]
        orphans = find_orphan_spans(records)
        assert len(orphans) == 2
        assert "'a'" in orphans[0] and "'ghost'" in orphans[0]
        assert "'c'" in orphans[1]

    def test_non_span_records_ignored(self):
        records = [
            {"type": "event", "name": "e", "t": 0.0, "attrs": {},
             "parent_id": "ghost"},
            "not even a dict",
        ]
        assert find_orphan_spans(records) == []

    def test_strict_file_validation_flags_orphans(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_meta()) + "\n"
            + json.dumps(_span(span_id="a", parent_id="ghost")) + "\n"
        )
        assert validate_trace_file(str(path)) == []
        problems = validate_trace_file(str(path), strict=True)
        assert len(problems) == 1
        assert problems[0].startswith("orphan:")


def _access(**overrides):
    record = {
        "type": "access", "t": 1.5, "ts": 1700000000.0,
        "trace_id": "ab" * 16, "method": "POST", "endpoint": "/solve",
        "status": 200, "duration_seconds": 0.125,
    }
    record.update(overrides)
    return record


class TestAccessRecords:
    def test_valid_record_passes(self):
        assert validate_record(_access()) == []
        full = _access(
            shed_reason="inflight", deadline=2.0, queue_seconds=0.1,
            solve_seconds=0.2, requeue_seconds=0.0, requeues=1,
            solve_status="ok", error="lost",
        )
        assert set(full) == set(ACCESS_FIELDS)
        assert validate_record(full) == []

    def test_null_status_when_client_left(self):
        assert validate_record(_access(status=None)) == []

    def test_missing_required_field(self):
        required = [name for name, (req, _) in ACCESS_FIELDS.items() if req]
        assert required == [
            "type", "t", "ts", "trace_id", "method", "endpoint",
            "duration_seconds",
        ]
        for field in required[1:]:
            record = _access()
            del record[field]
            assert any(field in p for p in validate_record(record)), field

    def test_bad_trace_id(self):
        assert any(
            "trace_id" in p for p in validate_record(_access(trace_id="XYZ"))
        )

    def test_unknown_field_rejected(self):
        problems = validate_record(_access(surprise=1))
        assert any("surprise" in p for p in problems)

    def test_old_schema_field_rejected(self):
        """A ``scwsc-access/1`` line is not an access record."""
        problems = validate_record(_access(schema="scwsc-access/1"))
        assert any("schema" in p for p in problems)

    def test_non_dict_rejected(self):
        """An access record sent as a list of pairs is not an object."""
        problems = validate_record(list(_access().items()))
        assert problems == ["record must be an object, got list"]

    def test_bool_is_not_a_number(self):
        problems = validate_record(_access(duration_seconds=True))
        assert any("duration_seconds" in p for p in problems)
        problems = validate_record(_access(status=True))
        assert any("status" in p for p in problems)

    def test_file_problem_reports_line_number(self, tmp_path):
        import json

        path = tmp_path / "access.jsonl"
        bad = _access()
        del bad["trace_id"]
        path.write_text(
            json.dumps(_meta()) + "\n" + json.dumps(_access()) + "\n"
            + json.dumps(bad) + "\n"
        )
        problems = validate_trace_file(str(path))
        assert len(problems) == 1 and problems[0].startswith("line 3:")
