"""Flight recorder: ring semantics, trace teeing, and the hard invariant
that arming the recorder never flips ``trace.enabled()``."""

from __future__ import annotations

import threading

import pytest

from repro.obs import flightrec, stacks
from repro.obs import trace as obs_trace
from repro.obs.flightrec import FlightRecorder, RingBuffer


class TestRingBuffer:
    def test_keeps_most_recent_and_counts_drops(self):
        ring = RingBuffer(3)
        for value in range(5):
            ring.append(value)
        assert ring.snapshot() == [2, 3, 4]
        assert ring.stats() == {
            "capacity": 3,
            "total": 5,
            "dropped": 2,
            "kept": 3,
        }

    def test_clear_resets_counters(self):
        ring = RingBuffer(2)
        ring.append("a")
        ring.clear()
        assert len(ring) == 0
        assert ring.stats()["total"] == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_concurrent_appends_never_lose_count(self):
        ring = RingBuffer(16)
        n_threads, per_thread = 8, 500

        def hammer():
            for i in range(per_thread):
                ring.append(i)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = ring.stats()
        assert stats["total"] == n_threads * per_thread
        assert stats["kept"] == 16


class TestFlightRecorderRouting:
    def test_routes_records_by_type(self):
        rec = FlightRecorder()
        rec.write({"type": "span", "name": "s"})
        rec.write({"type": "event", "name": "e"})
        rec.write({"type": "metrics", "t": 0.0, "metrics": {}})
        rec.write({"type": "access", "t": 0.0, "status": 200})
        rec.write({"type": "quality", "algorithm": "greedy"})
        rec.write({"type": "meta", "schema": "scwsc-trace/1"})
        assert len(rec.spans) == 1
        assert len(rec.metrics) == 1
        assert len(rec.access) == 1
        assert len(rec.quality) == 1
        # the events ring keeps events only; a type without a ring is
        # not kept
        assert [r["type"] for r in rec.events.snapshot()] == ["event"]

    def test_worker_rings_are_copied_out(self):
        rec = FlightRecorder()
        ring = [{"type": "event", "name": "worker_stage"}]
        rec.note_worker_ring(3, ring)
        out = rec.worker_rings()
        assert out == {3: ring}
        out[3].append("mutation")
        assert rec.worker_rings() == {3: ring[:1]}

    def test_snapshot_shape(self, monkeypatch):
        monkeypatch.setattr(FlightRecorder, "SPANS", 4)
        rec = FlightRecorder()
        rec.write({"type": "span", "name": "s"})
        snap = rec.snapshot()
        assert set(snap) == {
            "spans", "events", "access", "metrics", "quality"
        }
        assert snap["spans"]["capacity"] == 4
        assert [r["name"] for r in snap["spans"]["records"]] == ["s"]

    def test_metrics_poll_rings_immediately_and_on_tick(self, monkeypatch):
        """The poll writes through the tracer; the recorder rings its
        snapshots as a sink."""
        monkeypatch.setattr(FlightRecorder, "METRICS_INTERVAL", 0.01)
        rec = flightrec.install()
        ticked = threading.Event()
        calls = []

        def snapshot() -> dict:
            calls.append(1)
            if len(calls) >= 2:  # the first call is the immediate one
                ticked.set()
            return {"x": 1}

        rec.start_metrics_poll(snapshot)
        try:
            assert ticked.wait(5.0), "poll tick never fired"
        finally:
            rec.stop_metrics_poll()
        # one immediate snapshot plus >=1 from ticks
        assert len(rec.metrics) >= 2
        assert rec.metrics.snapshot()[0]["metrics"] == {"x": 1}


class TestInstallWiring:
    def test_install_arms_ring_without_flipping_enabled(self):
        rec = flightrec.install()
        assert flightrec.get_recorder() is rec
        assert obs_trace.recording()
        # THE invariant the overhead budget rests on:
        assert not obs_trace.enabled()

    def test_coarse_span_and_event_fall_back_to_ring(self):
        rec = flightrec.install()
        with obs_trace.span("request", endpoint="/solve"):
            obs_trace.event("dispatch", worker=0)
        names = [r["name"] for r in rec.spans.snapshot()]
        assert names == ["request"]
        events = [r["name"] for r in rec.events.snapshot()]
        assert events == ["dispatch"]

    def test_full_tracer_tees_into_ring(self, tmp_path):
        rec = flightrec.install()
        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        assert obs_trace.enabled()
        with obs_trace.span("solve"):
            pass
        obs_trace.shutdown()
        assert [r["name"] for r in rec.spans.snapshot()] == ["solve"]

    def test_ring_spans_not_double_written(self):
        rec = flightrec.install()
        with obs_trace.span("only-once"):
            pass
        assert len(rec.spans) == 1

    def test_uninstall_disarms(self):
        flightrec.install()
        flightrec.uninstall()
        assert flightrec.get_recorder() is None
        assert not obs_trace.recording()
        with obs_trace.span("dropped"):
            pass  # goes to NULL_SPAN, nowhere to land — must not raise


class TestStacks:
    def test_sample_once_sees_this_thread(self):
        sample = stacks.sample_once()
        me = [t for t in sample["threads"] if t["is_sampler"]]
        assert len(me) == 1
        assert any("test_sample_once" in f for f in me[0]["frames"])

    def test_burst_returns_count_samples(self):
        samples = stacks.burst(3, interval=0.001)
        assert len(samples) == 3

    def test_collapse_excludes_sampler_and_counts(self):
        sample = {
            "threads": [
                {"is_sampler": True, "frames": ["a.py:1:f"]},
                {"is_sampler": False, "frames": ["/x/b.py:2:g", "b.py:3:h"]},
            ]
        }
        collapsed = stacks.collapse_samples([sample, sample])
        assert collapsed == ["b.py:2:g;b.py:3:h 2"]
