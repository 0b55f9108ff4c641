"""The acceptance scenario: overload, deadlines, and graceful drain.

The load-shed test pins down the ISSUE's headline numbers: a 2-worker
pool with an admission cap of 4 takes 16 concurrent requests and
answers exactly 4×200 + 12×429 — no 500s, no hangs — with every 200
body verifying against the system the client sent and every deadline
honored within the hard-timeout tolerance.

Worker hangs are forced with the chaos layer (``REPRO_CHAOS=hang=1``)
so the admitted requests *must* travel the whole degradation ladder:
dispatch → SIGKILL at deadline+grace → requeue → budget exhausted →
parent-side verified universal fallback.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.core.result import result_from_dict
from repro.core.validate import verify_result
from repro.obs.metrics import get_registry
from repro.resilience.pool.protocol import system_from_payload

#: Every admitted request hangs in the worker until killed.
HANG_ENV = {"REPRO_CHAOS": "hang=1.0,hang_seconds=120,fault_limit=1000000"}

DEADLINE = 2.0
GRACE = 0.5
#: Slack over deadline+grace for poll slices, respawns, and HTTP
#: overhead on a loaded CI box.
TOLERANCE = 2.5


class TestOverload:
    def test_sixteen_concurrent_yield_only_200_and_429(
        self, make_server, solve_body
    ):
        server = make_server(
            worker_env=HANG_ENV,
            workers=2,
            max_inflight=4,
            grace=GRACE,
            max_requeues=1,
            default_deadline=DEADLINE,
        )
        body = solve_body(seed=9, deadline=DEADLINE)
        system = system_from_payload(body["system"])
        barrier = threading.Barrier(16)
        outcomes: list[tuple[int, dict, dict, float]] = []
        lock = threading.Lock()

        def fire() -> None:
            barrier.wait()
            started = time.monotonic()
            code, response, headers = server.post(
                "/solve", body, timeout=DEADLINE + GRACE + 30
            )
            elapsed = time.monotonic() - started
            with lock:
                outcomes.append((code, response, headers, elapsed))

        threads = [threading.Thread(target=fire) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE + GRACE + 60)
            assert not thread.is_alive(), "request thread hung"

        codes = sorted(code for code, _, _, _ in outcomes)
        assert codes == [200] * 4 + [429] * 12, codes

        for code, response, headers, elapsed in outcomes:
            if code == 429:
                assert response["reason"] == "inflight"
                assert int(headers["Retry-After"]) >= 1
                continue
            # Hung workers force the full degradation ladder; the
            # answer is still a *verified* universal fallback.
            assert response["status"] == "fallback"
            problems = verify_result(
                system,
                result_from_dict(response["result"]),
                k=body["k"],
                s_hat=body["s"],
            )
            assert problems == []
            assert elapsed <= DEADLINE + GRACE + TOLERANCE, elapsed
            outcomes_seen = [
                attempt["outcome"]
                for attempt in response["pool"]["attempts"]
            ]
            assert outcomes_seen, "no attempt provenance"

        # The registry saw exactly the sheds the clients saw.
        shed = get_registry().counter("scwsc_server_shed_total")
        assert shed.value(reason="inflight") == 12
        admitted = get_registry().counter("scwsc_server_admitted_total")
        assert admitted.value() == 4

    def test_deadline_exhaustion_provenance(self, make_server, solve_body):
        # One hanging request end to end: the provenance must show the
        # hard-kill and the budget-exhausted fallback, not a 500.
        server = make_server(
            worker_env=HANG_ENV,
            workers=1,
            grace=GRACE,
            max_requeues=1,
            default_deadline=DEADLINE,
        )
        started = time.monotonic()
        code, response, _ = server.post(
            "/solve",
            solve_body(seed=3, deadline=1.5),
            timeout=DEADLINE + GRACE + 30,
        )
        elapsed = time.monotonic() - started
        assert code == 200
        assert response["status"] == "fallback"
        assert elapsed <= 1.5 + GRACE + TOLERANCE
        outcomes = [
            attempt["outcome"] for attempt in response["pool"]["attempts"]
        ]
        assert "deadline-exhausted" in outcomes or "hard-timeout" in outcomes


class TestSigtermDrain:
    def test_sigterm_under_load_drains_and_exits_zero(
        self, solve_body, tmp_path
    ):
        """Boot the real CLI daemon, load it, SIGTERM it mid-flight.

        In-flight requests must complete (the hang chaos makes them
        take their full deadline, so the drain is genuinely exercised)
        and the process must exit 0.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.update(HANG_ENV)
        trace_path = tmp_path / "serve.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--default-deadline",
                str(DEADLINE),
                "--grace",
                str(GRACE),
                "--trace",
                str(trace_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            boot = json.loads(proc.stdout.readline())
            assert boot["event"] == "listening"
            port = boot["port"]
            base = f"http://127.0.0.1:{port}"
            body = solve_body(seed=5, deadline=DEADLINE)
            results: list[int] = []

            def fire() -> None:
                import urllib.request

                request = urllib.request.Request(
                    base + "/solve", data=json.dumps(body).encode()
                )
                with urllib.request.urlopen(
                    request, timeout=DEADLINE + GRACE + 30
                ) as response:
                    results.append(response.status)

            threads = [threading.Thread(target=fire) for _ in range(2)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)  # both requests are in flight now
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(DEADLINE + GRACE + 60)
                assert not thread.is_alive()
            assert results == [200, 200]
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The trace the daemon wrote is schema-valid and records the
        # server lifecycle events.
        from repro.obs.schema import validate_trace_file

        assert validate_trace_file(str(trace_path)) == []
        events = set()
        with open(trace_path) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "event":
                    events.add(record["name"])
        assert {"server_start", "server_drain_begin", "server_drained",
                "server_stop"} <= events
