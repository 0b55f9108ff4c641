#!/usr/bin/env python
"""CI serve-smoke: boot the real daemon, load it, shed it, drain it.

Two daemon boots, both through ``scwsc serve`` subprocesses so the whole
stack (CLI, signal handling, pool spawn) is on the hook:

1. **Healthy daemon** — concurrent solves with mixed deadlines must all
   come back 200 with verified bodies; an upstream ``traceparent`` is
   adopted end to end, on a request whose repeated system the daemon
   must not decode again (``system_decoded: false``); ``/healthz``,
   ``/readyz``, and ``/metrics`` answer; a SIGTERM exits 0 and leaves a schema-valid trace plus a
   schema-valid access log (one ``access`` record per request), both
   uploaded as CI artifacts (the trace also renders into the run dashboard).
2. **Overloaded daemon** — workers are forced to hang via the chaos
   layer (``REPRO_CHAOS=hang=1``) with an admission cap of 4, and 8
   concurrent requests must split into exactly 4 degraded 200s and
   4 429s (with ``Retry-After``); SIGTERM lands *during* the load and
   the daemon must still drain the in-flight work and exit 0.

Exit 0 on success; non-zero with a message on the first failure. CI
uploads the output directory (traces + dashboard) as an artifact.

Usage::

    python benchmarks/serve_smoke.py [OUT_DIR]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.cli import main as cli_main
from repro.core.result import result_from_dict
from repro.core.validate import verify_result
from repro.datasets.registry import load_dataset
from repro.obs.report import load_trace
from repro.obs.schema import validate_trace_file
from repro.patterns.pattern_sets import build_set_system
from repro.resilience.pool.protocol import system_from_payload, system_to_payload

HANG_ENV = "hang=1.0,hang_seconds=120,fault_limit=1000000"
DEADLINE = 2.0
GRACE = 0.5


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


class Daemon:
    """One ``scwsc serve`` subprocess plus a JSON client for it."""

    def __init__(self, out_dir: Path, name: str, extra_args: list[str],
                 chaos: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if chaos is not None:
            env["REPRO_CHAOS"] = chaos
        self.trace_path = out_dir / f"{name}.jsonl"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--workers", "2",
                "--default-deadline", str(DEADLINE),
                "--grace", str(GRACE),
                "--trace", str(self.trace_path),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        try:
            boot = json.loads(line)
        except ValueError:
            self.kill()
            fail(f"{name}: unparseable boot line: {line!r}")
        if boot.get("event") != "listening" or not boot.get("ready"):
            self.kill()
            fail(f"{name}: bad boot record: {boot}")
        self.base = f"http://127.0.0.1:{boot['port']}"

    def request(self, path: str, body=None, timeout: float = 60.0,
                headers: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def get_text(self, path: str) -> tuple[int, str]:
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return response.status, response.read().decode()

    def terminate(self, timeout: float = 60.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def check_trace(path: Path, required_events: set[str]) -> None:
    problems = validate_trace_file(str(path), strict=True)
    if problems:
        for problem in problems[:20]:
            print(f"serve-smoke: {path}: {problem}", file=sys.stderr)
        fail(f"{path} has {len(problems)} schema problem(s)")
    events = set()
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "event":
                events.add(record["name"])
    missing = required_events - events
    if missing:
        fail(f"{path} missing events {sorted(missing)}; got {sorted(events)}")


def solve_payload() -> dict:
    # The paper's 16-entity running example: small enough that the full
    # solver chain finishes well inside the tightest deadline, so every
    # healthy-phase request must come back "ok", never degraded.
    system = build_set_system(load_dataset("entities"), "count")
    return system_to_payload(system)


def healthy_phase(out_dir: Path, system_payload: dict) -> Path:
    access_path = out_dir / "serve-access.jsonl"
    if access_path.exists():
        access_path.unlink()
    daemon = Daemon(
        out_dir, "serve-healthy", ["--access-log", str(access_path)]
    )
    try:
        code, _, _ = daemon.request("/healthz")
        if code != 200:
            fail(f"healthz answered {code}")
        code, ready, _ = daemon.request("/readyz")
        if code != 200 or not ready.get("ready"):
            fail(f"readyz not ready: {code} {ready}")

        deadlines = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
        outcomes: list[tuple[float, int, dict]] = []
        lock = threading.Lock()

        def fire(deadline: float) -> None:
            code, body, _ = daemon.request(
                "/solve",
                {
                    "system": system_payload,
                    "k": 4,
                    "s": 0.5,
                    "deadline": deadline,
                    "tag": f"d{deadline:g}",
                },
                timeout=deadline + GRACE + 60,
            )
            with lock:
                outcomes.append((deadline, code, body))

        threads = [
            threading.Thread(target=fire, args=(d,)) for d in deadlines
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            if thread.is_alive():
                fail("healthy solve hung")

        system = system_from_payload(system_payload)
        for deadline, code, body in outcomes:
            if code != 200:
                fail(f"healthy solve (deadline {deadline}) answered {code}: {body}")
            problems = verify_result(
                system, result_from_dict(body["result"]), k=4, s_hat=0.5
            )
            if problems:
                fail(f"200 body failed verification: {problems}")

        # One solve with an upstream traceparent: the daemon must adopt
        # the caller's trace id end to end (response body + header).
        upstream_tid = "ab" * 16
        code, body, headers = daemon.request(
            "/solve",
            {"system": system_payload, "k": 4, "s": 0.5, "tag": "traced"},
            headers={"traceparent": f"00-{upstream_tid}-{'cd' * 8}-01"},
        )
        if code != 200 or body.get("trace_id") != upstream_tid:
            fail(f"traceparent not adopted: {code} {body.get('trace_id')}")
        echoed = headers.get("Traceparent", "")
        if upstream_tid not in echoed:
            fail(f"response Traceparent header missing trace id: {echoed!r}")
        # Its system repeats the deadline solves' system text, so the
        # daemon's system cache answers it without building it again.
        if body["pool"].get("system_decoded") is not False:
            fail(f"repeated system was decoded again: {body['pool']}")

        code, page = daemon.get_text("/metrics")
        for needle in (
            "scwsc_build_info{",
            'scwsc_server_requests_total{code="200",endpoint="/solve"}',
            "scwsc_server_request_seconds_bucket",
        ):
            if needle not in page:
                fail(f"/metrics missing {needle!r}")

        exit_code = daemon.terminate()
        if exit_code != 0:
            fail(f"healthy daemon exited {exit_code} on SIGTERM")
    finally:
        daemon.kill()

    # Access log: a schema-valid trace of one access record per request
    # we made — healthz + readyz + 6 deadline solves + the traced solve
    # + metrics — after its meta record.
    check_trace(access_path, set())
    records = load_trace(str(access_path))
    if [r["type"] for r in records] != ["meta"] + ["access"] * 10:
        fail(f"expected meta + 10 access records, got {len(records)} record(s)")
    traced = [
        record for record in records if record.get("trace_id") == upstream_tid
    ]
    if len(traced) != 1 or traced[0].get("solve_status") != "ok":
        fail(f"bad access record for traced solve: {traced}")
    check_trace(
        daemon.trace_path,
        {"server_start", "server_complete", "server_drain_begin",
         "server_drained", "server_stop"},
    )
    print(f"serve-smoke: healthy phase ok ({len(deadlines)} mixed-deadline 200s)")
    return daemon.trace_path


def overload_phase(out_dir: Path, system_payload: dict) -> None:
    daemon = Daemon(
        out_dir, "serve-overload", ["--max-inflight", "4"], chaos=HANG_ENV
    )
    try:
        outcomes: list[tuple[int, dict, dict]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def fire() -> None:
            barrier.wait()
            code, body, headers = daemon.request(
                "/solve",
                {"system": system_payload, "k": 4, "s": 0.5,
                 "deadline": DEADLINE},
                timeout=DEADLINE + GRACE + 60,
            )
            with lock:
                outcomes.append((code, body, headers))

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        # SIGTERM while the admitted requests are still in flight: the
        # drain must finish them before the process exits.
        time.sleep(0.7)
        daemon.proc.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(120)
            if thread.is_alive():
                fail("overload request hung")

        codes = sorted(code for code, _, _ in outcomes)
        if codes != [200] * 4 + [429] * 4:
            fail(f"expected 4x200 + 4x429, got {codes}")
        for code, body, headers in outcomes:
            if code == 429:
                if "Retry-After" not in headers:
                    fail("429 without Retry-After")
            elif body.get("status") != "fallback":
                fail(f"hung-worker 200 was not a fallback: {body.get('status')}")
        exit_code = daemon.proc.wait(timeout=60)
        if exit_code != 0:
            fail(f"overloaded daemon exited {exit_code} on SIGTERM")
    finally:
        daemon.kill()
    check_trace(
        daemon.trace_path,
        {"server_start", "server_shed", "server_drain_begin",
         "server_drained", "server_stop"},
    )
    print("serve-smoke: overload phase ok (4x200 fallback, 4x429, clean drain)")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("serve-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    system_payload = solve_payload()

    healthy_trace = healthy_phase(out_dir, system_payload)
    overload_phase(out_dir, system_payload)

    # The served trace renders into the standard run dashboard.
    report_path = out_dir / "serve-report.html"
    code = cli_main(
        ["report", str(healthy_trace), "-o", str(report_path),
         "--title", "serve-smoke"]
    )
    if code != 0 or not report_path.exists():
        fail(f"dashboard render exited {code}")
    print(f"serve-smoke: ok (dashboard at {report_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
