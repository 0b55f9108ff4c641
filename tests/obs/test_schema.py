"""Trace schema validation: records and whole files."""

from __future__ import annotations

from repro.obs.schema import (
    find_orphan_spans,
    main,
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


def _profile(**overrides):
    record = {
        "type": "profile", "profile_kind": "cprofile", "scope": "solve",
        "t": 1.0, "data": {"functions": []},
    }
    record.update(overrides)
    return record


def _quality(**overrides):
    record = {
        "type": "quality", "t": 1.0, "algorithm": "cwsc",
        "quality": {"approx_ratio": 1.25, "coverage_slack": 0.1,
                    "sets_used": 3, "lp_bound": None, "feasible": True},
    }
    record.update(overrides)
    return record


class TestProfileRecords:
    def test_valid_profile_kinds_pass(self):
        assert validate_record(_profile()) == []
        assert validate_record(
            _profile(profile_kind="memory",
                     data={"alloc_bytes": 10, "peak_bytes": 20})
        ) == []
        assert validate_record(
            _profile(profile_kind="rss", scope="process",
                     data={"peak_rss_bytes": 1}, span_id="s1")
        ) == []

    def test_unknown_kind_rejected(self):
        bad = _profile(profile_kind="flame")
        assert any("profile_kind" in p for p in validate_record(bad))

    def test_missing_scope_and_data_rejected(self):
        assert any(
            "scope" in p for p in validate_record(_profile(scope=""))
        )
        assert any(
            "data" in p for p in validate_record(_profile(data=[1, 2]))
        )

    def test_bad_time_and_span_id_rejected(self):
        assert any("t" in p for p in validate_record(_profile(t="later")))
        assert any(
            "span_id" in p
            for p in validate_record(_profile(span_id={"no": 1}))
        )


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
    def test_profiled_capture_replays_valid(self, tmp_path):
        """A worker-style capture plus profile records, replayed into a
        file trace with request/attempt attrs, must validate end to end
        (strictly: the replayed spans form one tree) with every record
        carrying the merged attrs."""
        import json

        from repro.obs import profile as obs_profile
        from repro.obs import trace as obs_trace

        session = obs_profile.ProfileSession()
        session.start()
        try:
            with obs_trace.capture() as captured:
                with obs_trace.span("solve", backend="set"):
                    with obs_trace.span("select"):
                        sum(range(2000))
                    obs_trace.event("tracker_update", remaining=3)
        finally:
            profile_recs = session.stop()
        captured = list(captured) + profile_recs

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
        spans = [r for r in records if r["type"] == "span"]
        assert spans and all(
            r["attrs"]["request_id"] == 7 and r["attrs"]["attempt"] == 2
            for r in spans
        )
        assert any(r["type"] == "profile" for r in records)
        assert {r["name"] for r in spans if True} >= {"solve", "select"}


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


class TestCli:
    def test_main_ok_and_failure(self, tmp_path, capsys):
        import json

        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(_meta()) + "\n")
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main([str(bad)]) == 1
        assert main([]) == 2

    def test_strict_flag_changes_verdict(self, tmp_path, capsys):
        import json

        path = tmp_path / "orphaned.jsonl"
        path.write_text(
            json.dumps(_meta()) + "\n"
            + json.dumps(_span(span_id="a", parent_id="ghost")) + "\n"
        )
        assert main([str(path)]) == 0
        assert main(["--strict", str(path)]) == 1
