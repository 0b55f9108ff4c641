"""Trace rollups, the summary renderer and the flamegraph export."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import (
    collapsed_stacks,
    event_counts,
    phase_rollups,
    render_summary,
    summarize_file,
)
from repro.obs.trace import SCHEMA


def _span(name, duration, span_id="s1", parent_id=None, **attrs):
    return {
        "type": "span", "name": name, "span_id": span_id,
        "parent_id": parent_id, "t_start": 0.0, "t_end": duration,
        "duration": duration, "attrs": attrs,
    }


def _event(name):
    return {"type": "event", "name": name, "t": 0.1, "attrs": {}}


class TestRollups:
    def test_phase_rollups_aggregate_by_name(self):
        records = [
            _span("select", 0.2),
            _span("select", 0.4),
            _span("solve", 1.0),
            _event("dispatch"),
        ]
        rollups = phase_rollups(records)
        assert rollups["select"]["count"] == 2
        assert rollups["select"]["total"] == 0.6000000000000001
        assert rollups["select"]["max"] == 0.4
        assert abs(rollups["select"]["mean"] - 0.3) < 1e-12
        assert rollups["solve"]["count"] == 1

    def test_event_counts(self):
        records = [_event("dispatch"), _event("dispatch"), _event("requeue")]
        assert event_counts(records) == {"dispatch": 2, "requeue": 1}

    def test_self_time_subtracts_direct_children(self):
        records = [
            _span("solve", 1.0, span_id="s1"),
            _span("select", 0.2, span_id="s2", parent_id="s1"),
            _span("select", 0.3, span_id="s3", parent_id="s1"),
            # Grandchild: charged to its select parent, not to solve.
            _span("scan", 0.1, span_id="s4", parent_id="s3"),
        ]
        rollups = phase_rollups(records)
        assert abs(rollups["solve"]["self"] - 0.5) < 1e-12
        assert abs(rollups["select"]["self"] - 0.4) < 1e-12
        assert abs(rollups["scan"]["self"] - 0.1) < 1e-12
        # Totals stay inclusive.
        assert rollups["solve"]["total"] == 1.0

    def test_self_time_clamped_at_zero(self):
        records = [
            _span("solve", 0.1, span_id="s1"),
            # Clock jitter: children sum past the parent.
            _span("select", 0.2, span_id="s2", parent_id="s1"),
        ]
        assert phase_rollups(records)["solve"]["self"] == 0.0

    def test_root_spans_keep_full_duration_as_self(self):
        records = [_span("solve", 0.7, span_id="s1")]
        assert phase_rollups(records)["solve"]["self"] == 0.7


class TestRenderSummary:
    def test_contains_phase_table_events_and_metrics(self):
        records = [
            {"type": "meta", "schema": SCHEMA, "wall_time_unix": 1.0,
             "t": 0.0, "attrs": {"command": "solve"}},
            _span("solve", 1.0),
            _span("select", 0.25),
            _event("tracker_update"),
            {"type": "metrics", "t": 2.0, "metrics": {
                "scwsc_solves_total": {
                    "kind": "counter",
                    "values": [
                        {"labels": {"algorithm": "cwsc"}, "value": 3},
                    ],
                },
            }},
        ]
        text = render_summary(records)
        assert "phase rollup" in text
        assert "self_s" in text
        assert "solve" in text and "select" in text
        assert "tracker_update" in text
        assert "scwsc_solves_total{algorithm=cwsc} 3" in text
        assert "command=solve" in text

    def test_budget_round_chart_when_multiple_rounds(self):
        records = [
            _span("budget_round", 0.1, round=0),
            _span("budget_round", 0.3, round=1),
            _span("budget_round", 0.2, round=2),
        ]
        text = render_summary(records)
        assert "budget round" in text

    def test_empty_trace_renders(self):
        assert "no spans" in render_summary([])


class TestSummarizeFile:
    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [
            {"type": "meta", "schema": SCHEMA, "wall_time_unix": 1.0,
             "t": 0.0, "attrs": {}},
            _span("solve", 0.5),
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert "solve" in summarize_file(str(path))

    def test_json_output_parses_and_matches_rollups(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [
            {"type": "meta", "schema": SCHEMA, "wall_time_unix": 1.0,
             "t": 0.0, "attrs": {"command": "solve"}},
            _span("solve", 0.5),
            _span("select", 0.1, span_id="s2", parent_id="s1"),
            _event("tracker_update"),
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = summarize_file(str(path), as_json=True)
        data = json.loads(out)  # must be valid JSON, not the text table
        assert data["schema"] == SCHEMA
        assert data["records"] == 4
        assert data["meta"]["command"] == "solve"
        assert data["phases"]["solve"]["total"] == pytest.approx(0.5)
        assert data["events"] == {"tracker_update": 1}


class TestCollapsedStacks:
    def test_self_time_per_path_in_micros(self):
        records = [
            _span("solve", 1.0, span_id="s1"),
            _span("select", 0.25, span_id="s2", parent_id="s1"),
            _span("select", 0.25, span_id="s3", parent_id="s1"),
        ]
        lines = collapsed_stacks(records)
        assert "solve 500000" in lines
        assert "solve;select 500000" in lines

    def test_zero_self_time_paths_dropped(self):
        records = [
            _span("solve", 0.5, span_id="s1"),
            _span("select", 0.5, span_id="s2", parent_id="s1"),
        ]
        assert collapsed_stacks(records) == ["solve;select 500000"]
