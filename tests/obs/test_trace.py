"""Span tracer: nesting, null-span fast path, capture/replay."""

from __future__ import annotations

import io
import json
import sys
import threading

from repro.obs import trace as obs_trace
from repro.obs.schema import validate_record, validate_trace_file


def _records(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs_trace.enabled()
        assert obs_trace.get_tracer() is None

    def test_span_returns_shared_null_span(self):
        span = obs_trace.span("solve", k=3)
        assert span is obs_trace.NULL_SPAN
        assert not span.enabled
        with span as inner:
            inner.set(anything=1)
            inner.event("noop")

    def test_event_and_write_raw_are_noops(self):
        obs_trace.event("worker_spawn", worker=0)
        obs_trace.write_raw({"type": "event", "name": "x", "t": 0.0})


class TestConfiguredTracer:
    def test_meta_record_comes_first_with_attrs(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer, command="test", dataset="lbl")
        obs_trace.shutdown()
        records = _records(buffer)
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == obs_trace.SCHEMA
        assert records[0]["attrs"] == {"command": "test", "dataset": "lbl"}

    def test_spans_nest_via_parent_id(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        with obs_trace.span("solve") as outer:
            with obs_trace.span("select") as inner:
                pass
        obs_trace.shutdown()
        records = _records(buffer)
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["select"]["parent_id"] == outer.span_id
        assert spans["solve"]["parent_id"] is None
        assert inner.span_id != outer.span_id
        # Spans close inner-first, so select is written before solve.
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["select", "solve"]

    def test_span_attrs_and_late_set(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        with obs_trace.span("solve", k=3) as span:
            assert span.enabled
            span.set(covered=7)
        obs_trace.shutdown()
        (span_record,) = [
            r for r in _records(buffer) if r["type"] == "span"
        ]
        assert span_record["attrs"] == {"k": 3, "covered": 7}
        assert span_record["t_end"] >= span_record["t_start"]

    def test_exception_is_recorded_and_propagates(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        try:
            with obs_trace.span("solve"):
                raise ValueError("boom")
        except ValueError:
            pass
        obs_trace.shutdown()
        (span_record,) = [
            r for r in _records(buffer) if r["type"] == "span"
        ]
        assert span_record["attrs"]["error"] == "ValueError"

    def test_shutdown_writes_final_metrics_record(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        obs_trace.shutdown(metrics_snapshot={"m": {"kind": "counter"}})
        records = _records(buffer)
        assert records[-1]["type"] == "metrics"
        assert records[-1]["metrics"] == {"m": {"kind": "counter"}}
        assert not obs_trace.enabled()

    def test_all_records_validate(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer, command="t")
        with obs_trace.span("solve", k=1):
            obs_trace.event("tracker_update", backend="set")
        obs_trace.shutdown(metrics_snapshot={})
        for record in _records(buffer):
            assert validate_record(record) == []


class TestCaptureAndReplay:
    def test_capture_collects_and_restores(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        with obs_trace.capture() as records:
            assert obs_trace.enabled()
            with obs_trace.span("solve"):
                pass
        # Still tracing to the file after the capture ...
        assert obs_trace.get_tracer() is not None
        assert [r["name"] for r in records] == ["solve"]
        assert all(r["type"] != "meta" for r in records)
        obs_trace.shutdown()
        # ... which saw the captured span too: a capture is one more sink.
        assert [r.get("name") for r in _records(buffer)] == [None, "solve"]

    def test_capture_works_without_outer_tracer(self):
        with obs_trace.capture() as records:
            with obs_trace.span("solve"):
                pass
        assert not obs_trace.enabled()
        assert len(records) == 1

    def test_concurrent_captures_never_lose_a_sink(self):
        """Sink tuples are swapped under a lock: with many threads
        attaching and detaching captures, each capture still receives
        its own thread's event, and every sink is detached at the end."""
        missed = []

        def churn() -> None:
            for _ in range(2000):
                with obs_trace.capture() as records:
                    obs_trace.event("tick", thread=threading.get_ident())
                if not any(
                    r["attrs"]["thread"] == threading.get_ident()
                    for r in records
                ):
                    missed.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert missed == []
        assert not obs_trace.recording()

    def test_replay_keeps_ids_and_merges_attrs(self):
        with obs_trace.capture() as records:
            with obs_trace.span("solve"):
                with obs_trace.span("select"):
                    pass
            obs_trace.event("tracker_update", updates=3)
        captured = {r["name"]: r for r in records if r["type"] == "span"}
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        obs_trace.replay(records, request_id=7, worker=0, attempt=1)
        obs_trace.shutdown()
        out = [r for r in _records(buffer) if r["type"] != "meta"]
        spans = {r["name"]: r for r in out if r["type"] == "span"}
        assert spans["solve"]["span_id"] == captured["solve"]["span_id"]
        assert spans["select"]["parent_id"] == spans["solve"]["span_id"]
        for record in out:
            assert record["attrs"]["request_id"] == 7
            assert record["attrs"]["worker"] == 0
            assert record["attrs"]["attempt"] == 1

    def test_two_attempts_replay_into_one_valid_tree(self, tmp_path):
        """Each attempt of a requeued request ships its own capture;
        both replay under the edge span with no span id colliding."""
        captures = []
        for _ in range(2):
            with obs_trace.capture() as records:
                with obs_trace.span("solve"):
                    with obs_trace.span("select"):
                        pass
            captures.append(records)
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(str(path))
        with obs_trace.span("server_request") as edge:
            for attempt, records in enumerate(captures, start=1):
                obs_trace.replay(
                    records, root_parent=edge.span_id, attempt=attempt
                )
        obs_trace.shutdown()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        ids = [r["span_id"] for r in spans]
        assert len(ids) == len(set(ids)) == 5
        roots = [r for r in spans if r["name"] == "solve"]
        assert [r["parent_id"] for r in roots] == [edge.span_id] * 2
        assert sorted(r["attrs"]["attempt"] for r in roots) == [1, 2]
        assert validate_trace_file(str(path), strict=True) == []

    def test_replay_skips_meta_records(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        obs_trace.replay(
            [{"type": "meta", "schema": obs_trace.SCHEMA, "t": 0.0}]
        )
        obs_trace.shutdown()
        assert [r["type"] for r in _records(buffer)] == ["meta"]


class TestJsonlSink:
    def test_file_target_is_owned_and_flushed(self, tmp_path):
        path = tmp_path / "out.jsonl"
        obs_trace.configure(str(path), command="t")
        with obs_trace.span("solve"):
            # Flushed per record: the meta line is on disk already.
            assert path.read_text().count("\n") >= 1
        obs_trace.shutdown()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert json.loads(lines[1])["name"] == "solve"


class TestTraceContext:
    def test_mint_and_roundtrip(self):
        ctx = obs_trace.TraceContext.mint()
        assert len(ctx.trace_id) == 32 and len(ctx.span_id) == 16
        parsed = obs_trace.parse_traceparent(ctx.to_traceparent())
        assert parsed == ctx

    def test_child_keeps_trace_id_fresh_span_id(self):
        ctx = obs_trace.TraceContext.mint()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    def test_parse_rejects_invalid_headers(self):
        assert obs_trace.parse_traceparent(None) is None
        assert obs_trace.parse_traceparent("") is None
        assert obs_trace.parse_traceparent("garbage") is None
        # version ff is reserved-invalid
        assert (
            obs_trace.parse_traceparent(
                "ff-" + "a" * 32 + "-" + "b" * 16 + "-01"
            )
            is None
        )
        # all-zero trace or span id is invalid
        assert (
            obs_trace.parse_traceparent(
                "00-" + "0" * 32 + "-" + "b" * 16 + "-01"
            )
            is None
        )
        assert (
            obs_trace.parse_traceparent(
                "00-" + "a" * 32 + "-" + "0" * 16 + "-01"
            )
            is None
        )
        # uppercase hex is normalized, not rejected (lenient parse: a
        # malformed-but-recoverable upstream header keeps its trace id)
        parsed = obs_trace.parse_traceparent(
            "00-" + "A" * 32 + "-" + "b" * 16 + "-01"
        )
        assert parsed is not None and parsed.trace_id == "a" * 32

    def test_context_var_set_and_reset(self):
        assert obs_trace.get_context() is None
        ctx = obs_trace.TraceContext.mint()
        with obs_trace.context(ctx):
            assert obs_trace.get_context() == ctx
        assert obs_trace.get_context() is None
        # None context is a no-op wrapper
        with obs_trace.context(None):
            assert obs_trace.get_context() is None

    def test_replay_root_parent_reparents_top_spans_only(self):
        with obs_trace.capture() as records:
            with obs_trace.span("solve"):
                with obs_trace.span("select"):
                    pass
            obs_trace.event("tracker_update", updates=1)
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        obs_trace.replay(records, root_parent="edgespan01")
        obs_trace.shutdown()
        out = [r for r in _records(buffer) if r["type"] != "meta"]
        spans = {r["name"]: r for r in out if r["type"] == "span"}
        # The worker's root span hangs off the request's edge span ...
        assert spans["solve"]["parent_id"] == "edgespan01"
        # ... while nested spans keep their worker-side parent.
        assert spans["select"]["parent_id"] == spans["solve"]["span_id"]
        # Events have no span ids and are never reparented.
        events = [r for r in out if r["type"] == "event"]
        assert all("parent_id" not in r for r in events)
