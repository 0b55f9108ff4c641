"""``serve-solve``: default-shape ``/solve`` traffic against ``scwsc serve``.

The daemon boots with its defaults. One process drives it in a closed
loop: two client threads, each on its own keep-alive connection, post
their next request when the previous reply arrives. Requests carry no
``solver`` field, so the full ``resilient`` chain runs, including its
``exact`` stage. The benchmark never polls ``/readyz``: an open breaker
turns it 503 while solves still succeed.

Bodies come from eight fixed systems, four LBL tables of 100 to 600
rows and four census tables of 500 to 2 000 rows. Each system is posted
with four ``(k, s_hat)`` pairs. One pass posts the 32 requests in a
seeded order to a freshly booted daemon, so three in four requests
repeat a system that daemon was already sent.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchlib import (
    Spans,
    Verdict,
    check_response,
    mean,
    descendants,
    median,
    tree_peak_rss_mb,
)

TABLES = (
    ("lbl", 100), ("lbl", 250), ("lbl", 400), ("lbl", 600),
    ("census", 500), ("census", 1000), ("census", 1500), ("census", 2000),
)
PAIRS = ((5, 0.3), (10, 0.5), (10, 0.7), (20, 0.5))
CLIENTS = 2
BOOT_REPEATS = 3
BOOT_TIMEOUT = 120.0
#: The daemon's own drain gives in-flight work up to 30 s.
STOP_TIMEOUT = 30.0
STAGES = ("exact", "lp_rounding", "cwsc", "cmc", "universal")


class Daemon:
    """One ``scwsc serve`` subprocess, booted with its defaults."""

    def __init__(self, env: dict, root: str, trace_path: Path | None = None):
        args = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(BOOT_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        self.boot_seconds = time.perf_counter() - start
        self._drain = None
        self.forced = False
        try:
            boot = json.loads(line)
        except ValueError:
            self.stop()
            raise RuntimeError(f"daemon did not boot: {line!r}") from None
        if boot.get("event") != "listening" or not boot.get("ready"):
            self.stop()
            raise RuntimeError(f"daemon boot record not ready: {boot}")
        self.port = int(boot["port"])
        # Drain later stdout so a chatty daemon never blocks on the pipe.
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True
        )
        self._drain.start()

    def stop(self) -> None:
        """SIGTERM and wait for the drain; a daemon that outlives
        :data:`STOP_TIMEOUT` is killed with its whole process tree."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.forced = True
                tree = descendants(self.proc.pid)
                for pid in [self.proc.pid, *tree]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait()
                _wait_gone(tree)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _wait_gone(pids: list[int], timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(map(_alive, pids)):
        time.sleep(0.05)


def make_inputs(seed: int) -> tuple[list, list]:
    """The eight systems and their 32 request bodies, in posting order.

    The systems are fixed (table seeds 1 to 8); ``seed`` orders the posts.
    Seeding the tables too would swing ``answer_cost`` and the LP-bound
    latencies by about 10 % from seed to seed.
    """
    from repro.core.marginal import resolve_backend
    from repro.datasets import load_dataset
    from repro.patterns import build_set_system
    from repro.resilience.pool.protocol import system_to_payload

    systems = []
    for index, (name, rows) in enumerate(TABLES):
        system = build_set_system(
            load_dataset(f"{name}:{rows}@{index + 1}"), "max"
        )
        systems.append({
            "spec": f"{name}:{rows}",
            "system": system,
            "payload": json.dumps(system_to_payload(system)),
            "backend": resolve_backend(system),
        })
    ops = []
    for index, entry in enumerate(systems):
        for k, s_hat in PAIRS:
            body = f'{{"system":{entry["payload"]},"k":{k},"s":{s_hat}}}'
            ops.append({
                "system": index, "k": k, "s_hat": s_hat,
                "body": body.encode(),
            })
    random.Random(seed).shuffle(ops)
    return systems, ops


def _drive(port: int, ops: list, spans: Spans, tag: int) -> tuple:
    """One pass over ``ops`` in a closed loop: each client posts its
    next op when its previous reply lands."""
    lock = threading.Lock()
    cursor = iter(range(len(ops)))
    replies: list[dict] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                reply = {"pass": tag, "index": index, "op": ops[index],
                         "status": None, "body": None, "error": None}
                with spans.span("serve.request", f"{tag}.{index}"):
                    reply["start"] = time.perf_counter()
                    try:
                        conn.request(
                            "POST", "/solve", body=ops[index]["body"],
                            headers={"Content-Type": "application/json"},
                        )
                        response = conn.getresponse()
                        raw = response.read()
                        reply["status"] = response.status
                    except (OSError, http.client.HTTPException) as error:
                        reply["error"] = f"{type(error).__name__}: {error}"
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=120
                        )
                        raw = b""
                    reply["end"] = time.perf_counter()
                reply["raw"] = raw
                with lock:
                    replies.append(reply)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    replies.sort(key=lambda r: r["index"])
    window = max(r["end"] for r in replies) - min(r["start"] for r in replies)
    return replies, window


def _passes(env, root, seconds, ops, spans, trace_prefix=None) -> list[dict]:
    """Whole passes, each against a freshly booted daemon, while another
    pass of the length seen so far still fits in ``seconds``.

    A fresh daemon per pass makes every pass alike: eight systems it has
    not seen, 24 repeats, and the ``exact`` breaker tripping anew.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start
        + mean([p["window"] for p in passes]) <= seconds
    ):
        tag = len(passes)
        trace_path = (
            None if trace_prefix is None
            else Path(f"{trace_prefix}-daemon-{tag}.jsonl")
        )
        daemon = Daemon(env, root, trace_path)
        try:
            replies, window = _drive(daemon.port, ops, spans, tag)
            peak = tree_peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        passes.append({"replies": replies, "window": window,
                       "peak_rss_mb": peak,
                       "boot_seconds": daemon.boot_seconds,
                       "forced_stop": daemon.forced})
    return passes


def _check(replies: list, systems: list) -> tuple[int, Verdict]:
    """Parse and judge every reply; returns the failed count and the
    merged verdict."""
    failed, merged = 0, Verdict([], [])
    for reply in replies:
        op = reply["op"]
        if reply["error"] is not None:
            verdict = Verdict([], [reply["error"]])
        else:
            try:
                reply["body"] = json.loads(reply["raw"])
            except ValueError:
                reply["body"] = None
            verdict = check_response(
                reply["status"], reply["body"],
                systems[op["system"]]["system"], op["k"], op["s_hat"],
            )
        reply["raw"] = None
        failed += verdict.failed
        merged = merged + verdict
    return failed, merged


def _codec_seconds(systems: list) -> list[float]:
    """In-process payload codec time per system: decode the parsed body,
    then re-encode and fingerprint it, as the daemon does per request."""
    from repro.resilience.pool.protocol import (
        system_from_payload,
        system_payload_and_fingerprint,
    )

    seconds = []
    for entry in systems:
        payload = json.loads(entry["payload"])
        start = time.perf_counter()
        system_payload_and_fingerprint(system_from_payload(payload))
        seconds.append(time.perf_counter() - start)
    return seconds


def _layers(replies: list, systems: list, latencies_untraced: list) -> dict:
    ok = [r for r in replies if r["status"] == 200 and r["body"]]
    pools = [r["body"].get("pool", {}) for r in ok]
    timings = [p.get("timings", {}) for p in pools]
    codec = _codec_seconds(systems)
    latencies = [r["end"] - r["start"] for r in ok]
    pool_seconds = [
        t.get("queue_seconds", 0.0) + t.get("solve_seconds", 0.0)
        + t.get("requeue_seconds", 0.0)
        for t in timings
    ]
    n = max(1, len(ok))
    layers = {
        "resilience.pool.codec_s": mean(
            [codec[r["op"]["system"]] for r in replies]
        ),
        "resilience.pool.queue_s": mean(
            [t.get("queue_seconds", 0.0) for t in timings]),
        "resilience.pool.solve_s": mean(
            [t.get("solve_seconds", 0.0) for t in timings]),
        "resilience.pool.requeue_s": mean(
            [t.get("requeue_seconds", 0.0) for t in timings]),
        "resilience.pool.requeues_per_request": mean(
            [p.get("requeues", 0) for p in pools]),
        "resilience.chain.routed_around_share": sum(
            1 for p in pools if p.get("routed_around")) / n,
        "resilience.chain.fallback_share": sum(
            1 for r in ok if r["body"].get("status") == "fallback") / n,
        "serve.overhead_s": mean(
            [lat - pool for lat, pool in zip(latencies, pool_seconds)]),
        "serve.body_mb": mean([len(r["op"]["body"]) / 1e6 for r in replies]),
        "serve.shed_ratio": sum(
            1 for r in replies if r["status"] == 429) / max(1, len(replies)),
        "serve.reuse_share": reuse_share(replies),
    }
    for stage in STAGES:
        layers[f"resilience.chain.answered_by.{stage}"] = sum(
            1 for r in ok
            if r["body"].get("result", {}).get("algorithm") == stage
        ) / n
    traced = median(latencies)
    untraced = median(latencies_untraced)
    layers["obs.trace_overhead_ratio"] = (
        traced / untraced - 1.0 if untraced else 0.0
    )
    return layers


def reuse_share(replies: list) -> float:
    """Share of requests whose system their daemon was already sent."""
    seen: set[tuple] = set()
    repeats = 0
    for reply in replies:
        key = (reply["pass"], reply["op"]["system"])
        repeats += key in seen
        seen.add(key)
    return repeats / max(1, len(replies))


def run(seed: int, seconds: float, trace: bool, env: dict, root: str,
        out_dir: Path) -> dict:
    systems, ops = make_inputs(seed)
    spans = Spans(enabled=trace)
    if trace:
        # The same passes twice: against untraced daemons, then against
        # daemons booted with ``--trace``, each for half the run.
        base = _passes(env, root, seconds / 2, ops, Spans(enabled=False))
        passes = _passes(env, root, seconds / 2, ops, spans,
                         out_dir / f"serve-solve-{seed}")
        checked = [r for p in base + passes for r in p["replies"]]
        setup = []
    else:
        passes = _passes(env, root, seconds, ops, spans)
        checked = [r for p in passes for r in p["replies"]]
        setup = [p["boot_seconds"] for p in passes]
        while len(setup) < BOOT_REPEATS:
            daemon = Daemon(env, root)
            setup.append(daemon.boot_seconds)
            daemon.stop()
    failed, verdict = _check(checked, systems)
    replies = [r for p in passes for r in p["replies"]]
    answered = [
        r for r in replies
        if r["status"] == 200 and r["body"] and "result" in r["body"]
    ]
    outcome = {
        "setup": setup,
        "latencies": [r["end"] - r["start"] for r in answered],
        "window": sum(p["window"] for p in passes),
        "attempted": len(checked),
        "failed": failed,
        "wrong": verdict.false_claims,
        "breaches": verdict.failures,
        "answer_costs": [r["body"]["result"]["total_cost"] for r in answered],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "shape": {
            "systems": [
                {"spec": s["spec"], "n_elements": s["system"].n_elements,
                 "n_sets": s["system"].n_sets, "backend": s["backend"]}
                for s in systems
            ],
            "backend": sorted({s["backend"] for s in systems}),
            "body_bytes": mean([len(r["op"]["body"]) for r in replies]),
            "reuse_share": reuse_share(replies),
            "passes": len(passes),
            "forced_stops": sum(p["forced_stop"] for p in passes),
        },
    }
    if trace:
        base_lat = [r["end"] - r["start"] for p in base for r in p["replies"]
                    if r["status"] == 200]
        outcome["layers"] = _layers(replies, systems, base_lat)
        outcome["spans"] = spans
    return outcome
