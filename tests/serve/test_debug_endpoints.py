"""The /debug surface, postmortem triggers, and the flight recorder's
per-request work — all against live daemons.

The acceptance scenario from the flight-recorder design note lives here:
killing a pool worker during serve traffic must produce exactly one
schema-valid ``scwsc-postmortem/1`` bundle carrying ring-buffer spans,
pool events, sampled stacks, and a metrics snapshot.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.obs import postmortem
from repro.obs.flightrec import FlightRecorder


def _wait_for_bundles(directory: str, count: int = 1, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        names = sorted(
            n
            for n in os.listdir(directory)
            if n.startswith("postmortem-") and n.endswith(".json")
        )
        if len(names) >= count:
            return names
        time.sleep(0.1)
    return sorted(os.listdir(directory))


def _worker_pid(server) -> int:
    return server.engine.pool._workers[0].proc.pid


class TestDebugRoutes:
    def test_all_three_pages_answer_on_loopback(self, make_server):
        server = make_server()
        code, vars_, _ = server.get("/debug/vars")
        assert code == 200
        assert vars_["build"]["version"]
        assert vars_["flightrec"]["rings"]["spans"]["capacity"] > 0
        assert vars_["config"]["workers"] == 1
        assert vars_["uptime_seconds"] >= 0

        code, stacks, _ = server.get("/debug/stacks")
        assert code == 200
        assert stacks["sample"]["threads"]
        assert stacks["collapsed"]

        code, flightrec, _ = server.get("/debug/flightrec")
        assert code == 200
        assert flightrec["armed"] is True
        # no postmortem dir configured -> no trigger engine, no spool
        assert flightrec["triggers"] is None
        assert "spool" not in flightrec

    def test_rings_fill_with_traffic(self, make_server, solve_body):
        server = make_server()
        code, _, _ = server.post("/solve", solve_body())
        assert code == 200
        code, flightrec, _ = server.get("/debug/flightrec")
        stats = flightrec["stats"]["rings"]
        assert stats["spans"]["total"] >= 1
        assert stats["access"]["total"] >= 1
        event_names = {e["name"] for e in flightrec["recent_events"]}
        assert "dispatch" in event_names

    def test_disabled_endpoints_answer_403(self, make_server):
        server = make_server(debug_endpoints=False)
        for path in ("/debug/vars", "/debug/stacks", "/debug/flightrec"):
            code, body, _ = server.get(path)
            assert code == 403, path
            assert "disabled" in body["error"]
        # the rest of the API is unaffected
        assert server.get("/healthz")[0] == 200

    def test_flightrec_off_still_serves(self, make_server, solve_body):
        server = make_server(flightrec=False)
        assert server.post("/solve", solve_body())[0] == 200
        code, flightrec, _ = server.get("/debug/flightrec")
        assert code == 200
        assert flightrec["armed"] is False
        assert flightrec["stats"] is None


class TestWorkerDeathBundle:
    def test_killing_a_worker_writes_exactly_one_valid_bundle(
        self, make_server, solve_body, tmp_path
    ):
        """The acceptance scenario: healthy traffic, SIGKILL the pool
        worker, one schema-valid bundle with spans + pool events +
        stacks + metrics appears in the spool — and only one."""
        spool_dir = str(tmp_path / "postmortems")
        server = make_server(postmortem_dir=spool_dir)
        for seed in range(3):
            assert server.post("/solve", solve_body(seed=seed))[0] == 200

        os.kill(_worker_pid(server), signal.SIGKILL)
        # Traffic forces the supervisor to notice the death now.
        server.post("/solve", solve_body())

        names = _wait_for_bundles(spool_dir, count=1)
        assert names, "no bundle appeared after worker kill"
        server.httpd.triggers.drain(10.0)

        death_bundles = [n for n in names if "worker_death" in n]
        assert len(death_bundles) == 1, names
        bundle = postmortem.validate_bundle_file(
            os.path.join(spool_dir, death_bundles[0])
        )
        assert bundle["trigger"] == "worker_death"
        assert len(bundle["rings"]["spans"]["records"]) >= 1
        event_names = {
            r["name"] for r in bundle["rings"]["events"]["records"]
        }
        assert "worker_death" in event_names
        assert len(bundle["stacks"]["samples"]) >= 1
        assert bundle["stacks"]["collapsed"]
        assert isinstance(bundle["metrics"], dict) and bundle["metrics"]
        assert len(bundle["rings"]["metrics"]["records"]) >= 1
        assert bundle["config"]["workers"] == 1
        # the worker's own ring survived its death (shipped on earlier
        # result frames, retained by the supervisor)
        assert bundle["workers"], "worker ring missing from bundle"

        code, flightrec, _ = server.get("/debug/flightrec")
        assert flightrec["triggers"]["counts"]["worker_death"]["fired"] == 1
        assert death_bundles[0] in flightrec["spool"]["bundles"]


class TestServerErrorTriggers:
    def test_5xx_on_solve_fires_bundle(self, make_server, tmp_path):
        spool_dir = str(tmp_path / "postmortems")
        server = make_server(postmortem_dir=spool_dir)
        server.httpd.triggers.settle_seconds = 0.0
        server.httpd.observe_request("/solve", 500, 0.01)
        server.httpd.triggers.drain(10.0)
        names = [n for n in os.listdir(spool_dir) if "server_5xx" in n]
        assert len(names) == 1
        bundle = postmortem.validate_bundle_file(
            os.path.join(spool_dir, names[0])
        )
        assert bundle["context"]["code"] == 500

    def test_healthz_5xx_does_not_fire(self, make_server, tmp_path):
        spool_dir = str(tmp_path / "postmortems")
        server = make_server(postmortem_dir=spool_dir)
        server.httpd.observe_request("/healthz", 500, 0.01)
        server.httpd.triggers.drain(5.0)
        assert not os.listdir(spool_dir)


@pytest.mark.chaos
class TestCrashLoopBounded:
    def test_crash_loop_writes_bounded_bundles(
        self, make_server, solve_body, tmp_path
    ):
        """Satellite: a worker crash-looping under ``REPRO_CHAOS`` is one
        incident — bundle output stays rate-limited and the spool never
        exceeds its byte cap."""
        spool_dir = str(tmp_path / "postmortems")
        server = make_server(
            worker_env={"REPRO_CHAOS": "kill=1,limit=1000000"},
            postmortem_dir=spool_dir,
            postmortem_max_bytes=512 * 1024,
        )
        for seed in range(6):
            code, _, _ = server.post("/solve", solve_body(seed=seed))
            assert code == 200  # fallback still answers
        server.httpd.triggers.drain(15.0)

        stats = server.httpd.triggers.stats()["counts"]["worker_death"]
        assert stats["fired"] == 1
        assert stats["fired"] + stats["rate_limited"] >= 1
        spool = server.httpd.triggers.spool
        assert spool.total_bytes() <= spool.max_bytes
        # worker_death is rate-limited to one bundle; breaker_open may
        # legitimately add its own. Nothing else should be here.
        names = os.listdir(spool_dir)
        assert 1 <= len([n for n in names if "worker_death" in n]) <= 1
        assert len(names) <= 3


class TestServeRecorderWork:
    def test_one_record_per_ring_per_request(
        self, make_server, solve_body, monkeypatch
    ):
        """The recorder's per-request work is bounded: a shed ``/solve``
        (the whole edge path, no pool work) adds exactly one access
        record, one span and one event, and every ring stays within its
        capacity once the requests outnumber it. Counted, not timed."""
        capacity = 4
        for ring in ("SPANS", "EVENTS", "ACCESS"):
            monkeypatch.setattr(FlightRecorder, ring, capacity)
        server = make_server(max_inflight=1)
        recorder = server.httpd.recorder
        rings = {
            "access": recorder.access,
            "spans": recorder.spans,
            "events": recorder.events,
        }
        body = solve_body()
        assert server.admission.try_admit().admitted
        try:
            for _ in range(capacity + 3):
                before = {name: ring.stats()["total"] for name, ring in rings.items()}
                assert server.post("/solve", body, timeout=10)[0] == 429
                # Every record is written before the response goes out.
                for name, ring in rings.items():
                    assert ring.stats()["total"] == before[name] + 1, name
                    assert len(ring) <= ring.capacity, name
        finally:
            server.admission.release()
        assert all(len(ring) == capacity for ring in rings.values())
        assert [r["name"] for r in recorder.spans.snapshot()] == [
            "server_request"
        ] * capacity
        assert [r["name"] for r in recorder.events.snapshot()] == [
            "server_shed"
        ] * capacity
