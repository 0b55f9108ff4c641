"""Observability of the pool: breaker transition hooks, the event
stream a traced pool run writes (worker lifecycle + replayed solver
spans keyed by request id), and what a worker's result frame carries."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import flightrec as obs_flightrec
from repro.obs import trace as obs_trace
from repro.obs.schema import validate_record, validate_trace_file
from repro.resilience.pool import worker
from repro.resilience.pool.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.pool.protocol import (
    SolveRequest,
    encode_request,
    read_frame,
)
from repro.resilience.pool.supervisor import PoolConfig, SolverPool


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    obs_trace.shutdown()
    yield
    obs_trace.shutdown()


def _records(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def _events(records: list[dict], name: str | None = None) -> list[dict]:
    events = [r for r in records if r["type"] == "event"]
    if name is not None:
        events = [r for r in events if r["name"] == name]
    return events


class TestTransitionHook:
    def test_full_cycle_ordering(self):
        clock = FakeClock()
        transitions: list[tuple[str, str, str]] = []
        breaker = CircuitBreaker(
            "exact",
            failure_threshold=2,
            cooldown=10.0,
            clock=clock,
            on_transition=lambda *args: transitions.append(args),
        )
        breaker.record_failure()
        assert transitions == []  # below threshold: no state change
        breaker.record_failure()
        clock.advance(10.5)
        assert breaker.state == "half_open"  # lazy advance fires the hook
        breaker.record_success()
        assert transitions == [
            ("exact", "closed", "open"),
            ("exact", "open", "half_open"),
            ("exact", "half_open", "closed"),
        ]

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        transitions: list[tuple[str, str, str]] = []
        breaker = CircuitBreaker(
            "lp", failure_threshold=1, cooldown=5.0, clock=clock,
            on_transition=lambda *args: transitions.append(args),
        )
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()  # the half-open probe
        breaker.record_failure()
        assert transitions == [
            ("lp", "closed", "open"),
            ("lp", "open", "half_open"),
            ("lp", "half_open", "open"),
        ]

    def test_no_hook_without_state_change(self):
        transitions: list[tuple[str, str, str]] = []
        breaker = CircuitBreaker(
            "x", on_transition=lambda *args: transitions.append(args)
        )
        breaker.record_success()  # closed -> closed
        assert transitions == []

    def test_board_passes_hook_to_lazy_breakers(self):
        transitions: list[tuple[str, str, str]] = []
        board = BreakerBoard(
            failure_threshold=1,
            on_transition=lambda *args: transitions.append(args),
        )
        board.record_failure("exact")
        assert transitions == [("exact", "closed", "open")]


class TestPoolBreakerEvents:
    def test_transitions_become_trace_events_and_match_snapshot(self):
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        pool = SolverPool(PoolConfig(breaker_threshold=2))
        try:
            pool.board.record_failure("exact")
            pool.board.record_failure("exact")
            pool.board.record_success("exact")
        finally:
            pool.close()
        obs_trace.shutdown()
        events = _events(_records(buffer), "breaker_transition")
        assert [
            (e["attrs"]["breaker"], e["attrs"]["old"], e["attrs"]["new"])
            for e in events
        ] == [
            ("exact", "closed", "open"),
            ("exact", "open", "closed"),
        ]
        snapshot = pool.breaker_snapshot()
        assert snapshot["exact"]["state"] == "closed"
        assert snapshot["exact"]["times_opened"] == len(
            [e for e in events if e["attrs"]["new"] == "open"]
        )

    def test_breaker_snapshot_counts(self):
        pool = SolverPool(PoolConfig(breaker_threshold=3))
        try:
            pool.board.record_failure("cwsc")
            pool.board.record_success("cwsc")
        finally:
            pool.close()
        snapshot = pool.breaker_snapshot()
        assert snapshot["cwsc"]["total_failures"] == 1
        assert snapshot["cwsc"]["total_successes"] == 1
        assert snapshot["cwsc"]["state"] == "closed"


class TestPoolEventStream:
    def test_traced_run_interleaves_lifecycle_and_worker_spans(
        self, random_system
    ):
        system = random_system(n_elements=10, n_sets=6, seed=3)
        buffer = io.StringIO()
        obs_trace.configure(buffer)
        with SolverPool(PoolConfig(workers=1)) as pool:
            outcome = pool.solve(
                SolveRequest(
                    system=system, k=4, s_hat=0.8, solver="cwsc",
                    timeout=30.0, tag="cell",
                )
            )
        obs_trace.shutdown()
        assert outcome.status == "ok"
        records = _records(buffer)
        for record in records:
            assert validate_record(record) == []

        for name in ("worker_spawn", "worker_ready", "dispatch",
                     "request_complete"):
            assert _events(records, name), f"missing {name} event"

        dispatch = _events(records, "dispatch")[0]
        assert dispatch["attrs"]["request_id"] == 0
        assert dispatch["attrs"]["solver"] == "cwsc"
        complete = _events(records, "request_complete")[0]
        assert complete["attrs"]["status"] == "ok"
        assert complete["t"] >= dispatch["t"]

        worker_spans = [
            r for r in records
            if r["type"] == "span"
            and r.get("attrs", {}).get("request_id") == 0
        ]
        assert worker_spans, "worker solver spans were not replayed"
        solve_span = next(
            r for r in worker_spans if r["name"] == "solve"
        )
        assert solve_span["attrs"]["worker"] == 0
        assert solve_span["attrs"]["attempt"] == 1

    def test_untraced_run_emits_nothing(self, random_system):
        system = random_system(n_elements=8, n_sets=5, seed=4)
        with SolverPool(PoolConfig(workers=1)) as pool:
            outcome = pool.solve(
                SolveRequest(
                    system=system, k=3, s_hat=0.5, solver="cwsc",
                    timeout=30.0,
                )
            )
        assert outcome.status == "ok"
        assert not obs_trace.enabled()


class TestWorkerFrames:
    def test_flightrec_ring_carries_lifecycle_traced_or_not(
        self, random_system, tmp_path
    ):
        system = random_system(n_elements=10, n_sets=6, seed=3)
        recorder = obs_flightrec.install()
        lifecycles = []
        try:
            with SolverPool(PoolConfig(workers=1)) as pool:
                for request_id, traced in enumerate((False, True)):
                    if traced:
                        obs_trace.configure(str(tmp_path / "trace.jsonl"))
                    outcome = pool.solve(
                        SolveRequest(
                            system=system, k=4, s_hat=0.8, solver="cwsc",
                            timeout=30.0,
                        )
                    )
                    assert outcome.status == "ok"
                    ring = recorder.worker_rings()[0]
                    lifecycles.append([
                        r["name"] for r in ring
                        if r.get("attrs", {}).get("request") == request_id
                    ])
        finally:
            obs_flightrec.uninstall()
        expected = ["worker_solve_start", "worker_stage", "worker_solve_end"]
        assert lifecycles == [expected, expected]

    def test_truncated_trace_keeps_newest_records_as_valid_tree(
        self, random_system, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(worker, "_MAX_TRACE_RECORDS", 4)
        system = random_system(n_elements=10, n_sets=6, seed=3)
        payload = encode_request(
            SolveRequest(
                system=system, k=4, s_hat=0.8, solver="cwsc", timeout=30.0
            ),
            0,
        )
        payload["trace"] = True
        out = io.BytesIO()
        worker._handle_solve(out, payload)
        frames = io.BytesIO(out.getvalue())
        while (frame := read_frame(frames))["kind"] != "result":
            pass
        records = frame["trace"]
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(str(path))
        obs_trace.replay(records, request_id=0)
        obs_trace.shutdown()
        assert validate_trace_file(str(path), strict=True) == []
        marker = records[-1]
        assert marker["name"] == "trace_truncated"
        assert marker["attrs"]["dropped_records"] > 0
        assert marker["t"] > 0


class TestPeakRss:
    def test_positive_on_posix(self):
        rss = worker.peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024

    @pytest.mark.parametrize(
        ("platform", "expected"), [("linux", 2048 * 1024), ("darwin", 2048)]
    )
    def test_ru_maxrss_normalised_to_bytes(
        self, monkeypatch, platform, expected
    ):
        """``ru_maxrss`` is kilobytes on Linux and bytes on macOS."""
        resource = pytest.importorskip("resource")

        class Usage:
            ru_maxrss = 2048

        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
        monkeypatch.setattr(worker.sys, "platform", platform)
        assert worker.peak_rss_bytes() == expected


class TestSystemSentOnce:
    def test_worker_solve_start_says_whether_the_system_was_held(
        self, random_system
    ):
        system = random_system(n_elements=10, n_sets=6, seed=3)
        recorder = obs_flightrec.install()
        sent, cached = [], []
        try:
            with SolverPool(PoolConfig(workers=1)) as pool:
                for _ in range(2):
                    outcome = pool.solve(
                        SolveRequest(
                            system=system, k=4, s_hat=0.8, solver="cwsc",
                            timeout=30.0,
                        )
                    )
                    assert outcome.status == "ok"
                    assert "system_decoded" not in outcome.provenance
                    sent.append(outcome.provenance["system_sent"])
                    start = [
                        r for r in recorder.worker_rings()[0]
                        if r.get("name") == "worker_solve_start"
                    ][-1]
                    cached.append(start["attrs"]["system_cached"])
        finally:
            obs_flightrec.uninstall()
        assert sent == [True, False]
        assert cached == [False, True]
