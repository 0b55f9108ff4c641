"""Dashboard rendering: stable panel shape, escaping, history loading."""

from __future__ import annotations

import json

from repro.obs.dashboard import load_history, render_dashboard
from repro.obs.trace import SCHEMA

PANEL_IDS = (
    'id="waterfall"',
    'id="self-time"',
    'id="quality"',
    'id="profile"',
    'id="bench-trends"',
)


def _span(name, span_id, parent_id=None, t_start=0.0, duration=1.0, **attrs):
    return {
        "type": "span", "name": name, "span_id": span_id,
        "parent_id": parent_id, "t_start": t_start,
        "t_end": t_start + duration, "duration": duration, "attrs": attrs,
    }


def _full_trace():
    return [
        {"type": "meta", "schema": SCHEMA, "wall_time_unix": 1.0,
         "t": 0.0, "attrs": {"command": "solve"}},
        _span("solve", "s1", duration=1.0, backend="packed"),
        _span("select", "s2", parent_id="s1", t_start=0.1, duration=0.2),
        {"type": "event", "name": "tracker_update", "t": 0.3, "attrs": {}},
        {"type": "quality", "t": 0.9, "algorithm": "cwsc",
         "quality": {"total_cost": 6.0, "lp_bound": 4.0,
                     "approx_ratio": 1.5, "coverage_slack": 0.05,
                     "sets_used": 3, "sets_budget": 5, "feasible": True}},
        {"type": "profile", "profile_kind": "cprofile", "scope": "solve",
         "t": 1.0, "data": {"functions": [
             {"func": "core.py:1:greedy", "ncalls": 3, "tottime": 0.4,
              "cumtime": 0.8}], "n_functions": 1}},
        {"type": "profile", "profile_kind": "memory", "scope": "solve",
         "t": 1.0, "data": {"samples": 1, "alloc_bytes": 2048,
                            "peak_bytes": 4096}},
        {"type": "profile", "profile_kind": "rss", "scope": "process",
         "t": 1.0, "data": {"peak_rss_bytes": 1 << 24,
                            "process": "parent"}},
    ]


def _history_entry(seconds, ratio):
    return {
        "schema": "scwsc-bench-history/1", "wall_time_unix": 0.0,
        "cells": [{"bench_id": "bench_fig5_datasize[cwsc-n600-packed]",
                   "median_seconds": seconds, "approx_ratio": ratio,
                   "coverage_slack": 0.0, "feasible": True}],
    }


class TestRenderDashboard:
    def test_all_panels_present_even_when_empty(self):
        page = render_dashboard([], [])
        for panel in PANEL_IDS:
            assert panel in page
        assert "no spans in trace" in page
        assert "no quality records" in page
        assert "--profile" in page
        assert "no bench history" in page

    def test_self_contained_html(self):
        page = render_dashboard(_full_trace(), [_history_entry(0.01, 1.5)])
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page
        for marker in ("http://", "https://", "<script", "src="):
            assert marker not in page

    def test_waterfall_bars_and_depth(self):
        page = render_dashboard(_full_trace())
        assert '<div class="bar d0"' in page
        assert '<div class="bar d1"' in page
        assert "2 spans over" in page

    def test_quality_panel_values(self):
        page = render_dashboard(_full_trace())
        assert "1.5000" in page  # approx ratio
        assert "cwsc" in page
        assert 'class="spark"' in page  # ratio bar

    def test_profile_panel_sections(self):
        page = render_dashboard(_full_trace())
        assert "cpu: solve" in page
        assert "core.py:1:greedy" in page
        assert "mem: solve" in page
        assert "rss: process" in page

    def test_bench_trends_sparkline(self):
        history = [_history_entry(0.010, 1.2), _history_entry(0.012, 1.3)]
        page = render_dashboard([], history)
        assert "2 bench run(s) in history" in page
        assert "bench_fig5_datasize[cwsc-n600-packed]" in page
        assert "<polyline" in page

    def test_html_escaping_of_attacker_controlled_names(self):
        records = [
            _span("<script>alert(1)</script>", "s1"),
            {"type": "quality", "t": 0.1,
             "algorithm": "<img onerror=x>",
             "quality": {"approx_ratio": None, "feasible": True}},
        ]
        page = render_dashboard(records, [])
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page
        assert "<img onerror=x>" not in page

    def test_title_escaped_and_shown(self):
        page = render_dashboard([], [], title="run <#42>")
        assert "run &lt;#42&gt;" in page

    def test_waterfall_clips_to_longest_spans(self):
        records = [
            _span("select", f"s{i}", t_start=i * 0.001, duration=0.001)
            for i in range(500)
        ]
        page = render_dashboard(records)
        assert "showing the 400 longest spans" in page
        assert page.count('<div class="lane">') == 400


class TestLoadHistory:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_reads_jsonl_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entries = [_history_entry(0.01, 1.1), _history_entry(0.02, 1.2)]
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in entries)
        )
        loaded = load_history(str(path))
        assert len(loaded) == 2
        assert loaded[0]["cells"][0]["median_seconds"] == 0.01

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("\n" + json.dumps(_history_entry(0.01, 1.0)) + "\n\n")
        assert len(load_history(str(path))) == 1
