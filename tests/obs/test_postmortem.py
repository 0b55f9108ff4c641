"""Postmortem bundles: build/validate/redact, spool caps, trigger policy.

The load-bearing claims: a bundle that validates is trustworthy all the
way down (ring records re-checked against their own schemas), and a
crash-looping trigger source can never fill the disk — the spool's byte
and count caps hold no matter how often ``fire`` is called.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.errors import ValidationError
from repro.obs.flightrec import FlightRecorder
from repro.obs.postmortem import (
    POSTMORTEM_SCHEMA,
    BundleSpool,
    TriggerEngine,
    build_bundle,
    redact_bundle,
    validate_bundle,
    validate_bundle_file,
)


def loaded_recorder() -> FlightRecorder:
    rec = FlightRecorder()
    rec.write({"type": "span", "name": "request", "span_id": "a1",
               "parent_id": None, "t_start": 0.0, "t_end": 0.1,
               "duration": 0.1, "attrs": {}})
    rec.write({"type": "event", "name": "worker_death", "t": 0.05,
               "attrs": {"worker": 0}})
    rec.write({"type": "access", "t": 0.1, "ts": 1.0,
               "trace_id": "ab" * 16, "method": "POST",
               "endpoint": "/solve", "status": 200,
               "duration_seconds": 0.1})
    rec.write({"type": "metrics", "t": 0.2,
               "metrics": {"scwsc_requests_total": 1}})
    rec.note_worker_ring(0, [{"type": "event", "name": "worker_stage",
                              "t": 0.01, "attrs": {}}])
    return rec


def make_bundle(**overrides):
    bundle = build_bundle(
        loaded_recorder(),
        trigger="manual",
        reason="test",
        stack_samples=1,
        stack_interval=0.0,
    )
    bundle.update(overrides)
    return bundle


class TestBuildAndValidate:
    def test_built_bundle_is_valid(self):
        bundle = make_bundle()
        assert bundle["schema"] == POSTMORTEM_SCHEMA
        assert validate_bundle(bundle) == []

    def test_bundle_carries_all_rings_and_workers(self):
        bundle = make_bundle()
        assert len(bundle["rings"]["spans"]["records"]) == 1
        assert len(bundle["rings"]["events"]["records"]) == 1
        assert len(bundle["rings"]["access"]["records"]) == 1
        assert len(bundle["rings"]["metrics"]["records"]) == 1
        assert list(bundle["workers"]) == ["0"]
        assert bundle["stacks"]["samples"]
        assert isinstance(bundle["metrics"], dict)
        assert all(isinstance(v, str)
                   for v in bundle["build"].values())
        assert bundle["build"]["backend"] == "packed"

    def test_events_ring_holds_only_events(self):
        rec = loaded_recorder()
        quality = {"type": "quality", "t": 0.3, "algorithm": "cwsc",
                   "quality": {"total_cost": 4.0}}
        rec.write(quality)
        bundle = build_bundle(rec, trigger="manual", reason="test",
                              stack_samples=1, stack_interval=0.0)
        events = bundle["rings"]["events"]["records"]
        assert [r["type"] for r in events] == ["event"]
        assert bundle["rings"]["quality"]["records"] == [quality]
        assert validate_bundle(bundle) == []
        bundle["rings"]["events"]["records"].append(quality)
        assert validate_bundle(bundle) == [
            "rings.events[1] is not of type 'event'"
        ]

    def test_validate_rejects_wrong_schema_and_trigger(self):
        assert validate_bundle(make_bundle(schema="nope"))
        assert validate_bundle(make_bundle(trigger="nope"))
        assert validate_bundle("not a dict")

    def test_validate_recurses_into_ring_records(self):
        bundle = make_bundle()
        bundle["rings"]["spans"]["records"].append({"type": "span"})
        problems = validate_bundle(bundle)
        assert any("rings.spans[1]" in p for p in problems)

    def test_validate_recurses_into_access_records(self):
        bundle = make_bundle()
        bundle["rings"]["access"]["records"].append({"bogus": True})
        problems = validate_bundle(bundle)
        assert any("rings.access[1]" in p for p in problems)
        bundle = make_bundle()
        bundle["rings"]["access"]["records"].append(
            dict(bundle["rings"]["access"]["records"][0], status="200")
        )
        problems = validate_bundle(bundle)
        assert any("rings.access[1]: access.status" in p for p in problems)

    def test_missing_section_reported(self):
        bundle = make_bundle()
        del bundle["stacks"]
        assert any("stacks" in p for p in validate_bundle(bundle))

    def test_validate_bundle_file_round_trip(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(make_bundle()), encoding="utf-8")
        loaded = validate_bundle_file(str(path))
        assert loaded["trigger"] == "manual"

    def test_validate_bundle_file_raises_on_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError):
            validate_bundle_file(str(path))


class TestRedact:
    def test_scrubs_sensitive_keys_anywhere(self):
        bundle = make_bundle(context={
            "authorization": "Bearer abc",
            "nested": {"api_token": "xyz", "note": "keep"},
            "status": 500,
        })
        red = redact_bundle(bundle)
        assert red["context"]["authorization"] == "[redacted]"
        assert red["context"]["nested"]["api_token"] == "[redacted]"
        assert red["context"]["nested"]["note"] == "keep"
        assert red["context"]["status"] == 500
        # original untouched
        assert bundle["context"]["authorization"] == "Bearer abc"


class TestBundleSpool:
    def test_write_names_by_timestamp_and_trigger(self, tmp_path):
        spool = BundleSpool(str(tmp_path))
        path = spool.write(make_bundle())
        name = os.path.basename(path)
        assert name.startswith("postmortem-") and name.endswith("-manual.json")

    def test_count_cap_deletes_oldest(self, tmp_path):
        spool = BundleSpool(str(tmp_path), max_bundles=2)
        paths = [
            spool.write(make_bundle(created_unix=float(i)))
            for i in range(4)
        ]
        kept = spool.paths()
        assert len(kept) == 2
        assert kept == sorted(paths[-2:])

    def test_byte_cap_never_exceeded_but_newest_survives(self, tmp_path):
        bundle = make_bundle()
        size = len(json.dumps(bundle, separators=(",", ":")))
        spool = BundleSpool(str(tmp_path), max_bytes=int(size * 2.5))
        for i in range(6):
            spool.write(make_bundle(created_unix=float(i)))
            assert spool.total_bytes() <= spool.max_bytes
        assert len(spool.paths()) >= 1

    def test_name_collision_gets_suffix(self, tmp_path):
        spool = BundleSpool(str(tmp_path))
        a = spool.write(make_bundle(created_unix=1.0))
        b = spool.write(make_bundle(created_unix=1.0))
        assert a != b and os.path.exists(a) and os.path.exists(b)


class TestTriggerEngine:
    def engine(self, tmp_path, **kwargs):
        kwargs.setdefault("min_interval", 60.0)
        spool = BundleSpool(str(tmp_path))
        return TriggerEngine(loaded_recorder(), spool,
                             stack_samples=1, stack_interval=0.0, **kwargs)

    def test_fire_writes_valid_bundle(self, tmp_path):
        eng = self.engine(tmp_path)
        assert eng.fire("worker_death", reason="worker 0 died", sync=True)
        assert len(eng.written) == 1
        bundle = validate_bundle_file(eng.written[0])
        assert bundle["trigger"] == "worker_death"
        assert bundle["reason"] == "worker 0 died"

    def test_unknown_trigger_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self.engine(tmp_path).fire("meteor", reason="x")

    def test_rate_limit_bounds_a_crash_loop(self, tmp_path):
        """Satellite: a crash-looping worker is one incident, not one
        bundle per restart — and the spool byte cap holds throughout."""
        eng = self.engine(tmp_path, min_interval=60.0)
        fired = sum(
            eng.fire("worker_death", reason=f"restart {i}", sync=True)
            for i in range(50)
        )
        assert fired == 1
        assert len(eng.written) == 1
        stats = eng.stats()
        assert stats["counts"]["worker_death"]["fired"] == 1
        assert stats["counts"]["worker_death"]["rate_limited"] == 49
        assert eng.spool.total_bytes() <= eng.spool.max_bytes

    def test_rate_limit_window_reopens(self, tmp_path):
        eng = self.engine(tmp_path, min_interval=0.05)
        assert eng.fire("hard_timeout", reason="a", sync=True)
        assert not eng.fire("hard_timeout", reason="b", sync=True)
        time.sleep(0.06)
        assert eng.fire("hard_timeout", reason="c", sync=True)
        assert len(eng.written) == 2

    def test_rate_limit_is_per_kind(self, tmp_path):
        eng = self.engine(tmp_path)
        assert eng.fire("worker_death", reason="a", sync=True)
        assert eng.fire("breaker_open", reason="b", sync=True)

    def test_dedup_key_until_reset(self, tmp_path):
        eng = self.engine(tmp_path, min_interval=0.0)
        assert eng.fire("breaker_open", reason="open", key="pool", sync=True)
        assert not eng.fire("breaker_open", reason="open", key="pool",
                            sync=True)
        assert eng.stats()["counts"]["breaker_open"]["deduped"] == 1
        eng.reset_dedup("breaker_open", "pool")
        assert eng.fire("breaker_open", reason="re-open", key="pool",
                        sync=True)

    def test_racing_triggers_collapse_to_one_bundle(self, tmp_path):
        eng = self.engine(tmp_path, min_interval=60.0)
        results = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            results.append(
                eng.fire("worker_death", reason="race", sync=True)
            )

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(results) == 1
        assert len(eng.written) == 1

    def test_async_fire_drains(self, tmp_path):
        eng = self.engine(tmp_path)
        eng.settle_seconds = 0.0
        assert eng.fire("server_5xx", reason="500 on /solve")
        eng.drain(10.0)
        assert len(eng.written) == 1
        validate_bundle_file(eng.written[0])

    def test_failed_build_never_raises(self, tmp_path):
        eng = self.engine(tmp_path)
        eng.recorder = None  # force the build to blow up internally
        assert eng.fire("manual", reason="broken", sync=True)
        assert eng.written == []
        assert eng.stats()["pending"] == 0


class TestTriggerSink:
    """The trigger engine is a passive tracer sink: pool events fire
    triggers, everything else passes by, and nothing it does can raise
    into the thread that wrote the record."""

    def engine(self, tmp_path):
        return TriggerEngine(loaded_recorder(), BundleSpool(str(tmp_path)),
                             stack_samples=1, stack_interval=0.0)

    def test_maps_pool_events_to_triggers(self, tmp_path, monkeypatch):
        engine = self.engine(tmp_path)
        fired = []
        monkeypatch.setattr(
            engine, "fire", lambda kind, reason, **kw: fired.append(
                (kind, kw.get("key"))
            )
        )
        for name in ("worker_death", "hard_timeout", "dispatch"):
            engine.write({"type": "event", "name": name, "t": 0.0,
                          "attrs": {"worker": 1}})
        engine.write({"type": "event", "name": "breaker_transition",
                      "t": 0.0, "attrs": {"breaker": "w0", "new": "open"}})
        engine.write({"type": "span", "name": "worker_death"})
        assert fired == [
            ("worker_death", None), ("hard_timeout", None),
            ("breaker_open", "w0"),
        ]

    def test_breaker_close_resets_dedup(self, tmp_path):
        engine = self.engine(tmp_path)
        opened = {"type": "event", "name": "breaker_transition", "t": 0.0,
                  "attrs": {"breaker": "w0", "new": "open"}}
        engine.min_interval = 0.0
        engine.settle_seconds = 0.0
        engine.write(opened)
        engine.write(opened)
        assert engine.stats()["counts"]["breaker_open"]["deduped"] == 1
        engine.write(dict(opened, attrs={"breaker": "w0", "new": "closed"}))
        engine.write(opened)
        engine.drain(10.0)
        assert engine.stats()["counts"]["breaker_open"]["fired"] == 2

    def test_is_exception_isolated(self, tmp_path, monkeypatch):
        engine = self.engine(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("trigger bug")

        monkeypatch.setattr(engine, "fire", boom)
        engine.write({"type": "event", "name": "worker_death", "t": 0.0,
                      "attrs": {}})


class TestDebugCli:
    def test_debug_validate_verdicts(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_bundle()), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["debug", "validate", str(good)]) == 0
        assert main(["debug", "validate", str(good), str(bad)]) == 2
        assert "ok (trigger=manual)" in capsys.readouterr().out

    def test_debug_inspect_titles_records_without_a_name(
        self, tmp_path, capsys
    ):
        # A worker ring may end with a quality record, which has no
        # name; inspect names it by type. The recorder keeps quality
        # records in their own ring, so the last events are events.
        from repro.cli import main

        quality = {"type": "quality", "t": 0.3, "algorithm": "cwsc",
                   "quality": {"cost": 1.0}}
        recorder = loaded_recorder()
        recorder.write(quality)
        recorder.note_worker_ring(1, [quality])
        bundle = build_bundle(
            recorder, trigger="manual", reason="test",
            stack_samples=1, stack_interval=0.0,
        )
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle), encoding="utf-8")
        assert main(["debug", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "None" not in out
        assert "quality  1 record(s) (capacity 256, dropped 0)" in out
        assert "t=0.3" not in out
        assert "worker 1: 1 record(s), last=quality" in out
        assert "worker 0: 1 record(s), last=worker_stage" in out
