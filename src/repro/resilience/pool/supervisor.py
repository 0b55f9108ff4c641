"""The supervised solver pool: hard isolation for untrusted solves.

PR 1's `resilient_solve` degrades gracefully *inside* one process, but
cooperative deadlines cannot stop non-cooperative code: a runaway exact
search, a C extension that never returns, a lattice that eats all RAM.
This module provides the OS-level layer: requests execute in child
worker processes (:mod:`.worker`) and the supervisor enforces what the
children cannot be trusted to —

* **hard wall-clock timeouts**: a worker still busy past its request's
  cooperative budget plus ``grace`` is SIGKILLed;
* **memory guards**: workers run under ``RLIMIT_AS`` headroom
  (``memory_limit_mb``), so a memory hog dies alone;
* **supervision**: worker death (crash, OOM kill, hang, chaos SIGKILL)
  is detected via pipe EOF / process exit, the worker is respawned, and
  the in-flight request is requeued under a bounded retry budget;
* **circuit breakers** (:mod:`.breaker`): repeated failures blamed on
  one solver open its breaker and subsequent chains are routed around
  it, reusing the fallback-chain semantics;
* **verified results**: every answer a worker returns is independently
  re-verified against the parent's own copy of the set system before it
  is accepted — a lying or IPC-corrupted result is requeued, not
  returned.

When a request exhausts its retry budget the supervisor falls back to
the paper's default solution (`universal_result`) computed in-parent, so
on any system satisfying the full-coverage assumption the pool still
returns a feasible, verified answer whose provenance names every
failure along the way.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.fallbacks import universal_result
from repro.core.result import CoverResult, result_from_dict
from repro.core.validate import verify_result
from repro.errors import (
    InfeasibleError,
    ProtocolError,
    ReproError,
    ValidationError,
)
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.resilience import faults
from repro.resilience.pool.breaker import BreakerBoard
from repro.resilience.pool.protocol import (
    FrameReader,
    SolveRequest,
    encode_request,
    write_frame,
)

__all__ = [
    "PoolConfig",
    "PoolResult",
    "SolverPool",
    "run_isolated",
    "spawn_worker_process",
]

logger = get_logger(__name__)


def spawn_worker_process(
    index: int,
    memory_limit_mb: int | None = None,
    worker_env: dict | None = None,
) -> subprocess.Popen:
    """Spawn one pool worker speaking the frame protocol on its pipes.

    The child can import ``repro`` from any cwd, and ``worker_env``
    overlays the parent environment (a ``None`` value unsets a key).
    """
    command = [
        sys.executable,
        "-m",
        "repro.resilience.pool.worker",
        "--worker-id",
        str(index),
    ]
    if memory_limit_mb is not None:
        command += ["--memory-limit-mb", str(memory_limit_mb)]
    env = dict(os.environ)
    # Guarantee the child can import repro no matter the caller's cwd.
    src_root = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    for key, value in (worker_env or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = str(value)
    return subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,  # operator-visible
        env=env,
        bufsize=0,
    )

#: Error types in worker responses that are worth another attempt
#: (environment-dependent), vs. deterministic outcomes that are not.
_RETRYABLE_ERRORS = frozenset(
    {"TransientSolverError", "MemoryError", "ProtocolError"}
)
_DETERMINISTIC_ERRORS = frozenset(
    {"InfeasibleError", "DeadlineExceeded", "PatternSpaceError"}
)
#: Worker-reported stage statuses that count as breaker failures.
_STAGE_FAILURE_STATUSES = frozenset(
    {"timeout", "error", "transient_exhausted", "rejected"}
)

#: Delay between a chaos-scheduled dispatch and its injected SIGKILL,
#: long enough for the worker to be genuinely mid-solve.
_CHAOS_KILL_DELAY = 0.05

#: Under absolute deadlines, a request whose remaining budget is below
#: this is not worth a dispatch round-trip; it goes straight to the
#: parent-side fallback.
_MIN_DISPATCH_SLICE = 0.02


@dataclass
class PoolConfig:
    """Tuning for one :class:`SolverPool`.

    ``grace`` is the hard-kill slack: a worker gets the request's
    cooperative ``timeout`` plus this many seconds before SIGKILL.
    ``request_timeout`` supplies a cooperative budget for requests that
    do not carry their own; when both are ``None`` there is no hard
    deadline (hangs then last until the caller gives up — set one).
    ``max_requeues`` bounds *extra* attempts per request after its
    first. ``worker_env`` entries overlay the inherited environment
    (``None`` values remove keys) — chiefly for ``REPRO_CHAOS`` /
    ``REPRO_DEBUG_HANG``.

    With ``absolute_deadlines`` a request's ``timeout`` is an
    *end-to-end* budget starting when the request enters the pool:
    queue wait and requeues all burn the same clock, each dispatch gets
    only the remaining slice, and a request whose budget is spent skips
    the worker entirely and degrades to the parent-side fallback. This
    is what `scwsc serve` uses so a client's deadline bounds its total
    latency; the default (per-attempt budgets) preserves the batch/grid
    semantics of earlier releases.
    """

    workers: int = 2
    memory_limit_mb: int | None = None
    request_timeout: float | None = None
    grace: float = 2.0
    max_requeues: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    worker_env: dict | None = None
    spawn_retry_limit: int = 3
    absolute_deadlines: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.max_requeues < 0:
            raise ValidationError(
                f"max_requeues must be >= 0, got {self.max_requeues}"
            )
        if self.grace < 0:
            raise ValidationError(f"grace must be >= 0, got {self.grace}")
        if self.memory_limit_mb is not None and self.memory_limit_mb < 1:
            raise ValidationError(
                f"memory_limit_mb must be >= 1, got {self.memory_limit_mb}"
            )


@dataclass
class PoolResult:
    """Outcome of one pool request.

    ``status`` is ``"ok"`` (a worker's verified answer), ``"fallback"``
    (retry budget exhausted; the parent's universal-set answer), or
    ``"failed"`` (no feasible answer exists / bad request). ``result``
    is ``None`` only for ``"failed"`` requests with nothing to attach.
    The same ``provenance`` dict is stored in
    ``result.params["pool"]``.
    """

    request_id: int
    tag: str | None
    status: str
    result: CoverResult | None
    provenance: dict


class _Pending:
    """Supervisor-side state for one request."""

    __slots__ = (
        "request_id", "request", "effective_timeout", "deadline_at",
        "dispatches", "attempts", "routed_around", "done",
        "trace_ctx", "enqueued_at", "queue_seconds", "solve_seconds",
        "requeue_seconds", "last_dispatched_at", "last_attempt_end",
    )

    def __init__(self, request_id: int, request: SolveRequest,
                 effective_timeout: float | None,
                 deadline_at: float | None = None) -> None:
        self.request_id = request_id
        self.request = request
        self.effective_timeout = effective_timeout
        #: Absolute monotonic deadline (absolute_deadlines mode only).
        self.deadline_at = deadline_at
        self.dispatches = 0
        self.attempts: list[dict] = []
        self.routed_around: list[str] = []
        self.done = False
        #: The originating request's trace context, when the caller sent
        #: a ``traceparent`` — worker spans replay under its trace id and
        #: every pool event for this request carries it.
        self.trace_ctx = obs_trace.parse_traceparent(request.traceparent)
        self.enqueued_at = time.monotonic()
        #: Deadline-budget breakdown: wait before the first dispatch,
        #: cumulative worker-side time, and wait between attempts.
        self.queue_seconds = 0.0
        self.solve_seconds = 0.0
        self.requeue_seconds = 0.0
        self.last_dispatched_at: float | None = None
        self.last_attempt_end: float | None = None

    @property
    def trace_id(self) -> str | None:
        return self.trace_ctx.trace_id if self.trace_ctx else None

    def note_dispatched(self, now: float) -> None:
        if self.last_attempt_end is not None:
            self.requeue_seconds += now - self.last_attempt_end
        elif self.last_dispatched_at is None:
            self.queue_seconds = now - self.enqueued_at
        self.last_dispatched_at = now

    def note_attempt_end(self, now: float) -> None:
        if self.last_dispatched_at is not None and (
            self.last_attempt_end is None
            or self.last_attempt_end < self.last_dispatched_at
        ):
            self.solve_seconds += now - self.last_dispatched_at
            self.last_attempt_end = now

    def provenance(self) -> dict:
        provenance = {
            "tag": self.request.tag,
            "attempts": list(self.attempts),
            "requeues": max(0, self.dispatches - 1),
            "timings": {
                "queue_seconds": round(self.queue_seconds, 6),
                "solve_seconds": round(self.solve_seconds, 6),
                "requeue_seconds": round(self.requeue_seconds, 6),
            },
        }
        if self.trace_ctx is not None:
            provenance["trace_id"] = self.trace_ctx.trace_id
        return provenance


class _Worker:
    """One supervised child process."""

    __slots__ = (
        "index", "proc", "reader", "pending", "dispatched_at", "kill_at",
        "chaos_kill_at", "last_stage", "ready", "completed",
    )

    def __init__(self, index: int, proc: subprocess.Popen) -> None:
        self.index = index
        self.proc = proc
        self.reader = FrameReader()
        self.pending: _Pending | None = None
        self.dispatched_at: float | None = None
        self.kill_at: float | None = None
        self.chaos_kill_at: float | None = None
        self.last_stage: str | None = None
        self.ready = False
        self.completed = 0

    @property
    def busy(self) -> bool:
        return self.pending is not None

    @property
    def pid(self) -> int:
        return self.proc.pid


class SolverPool:
    """Run :class:`SolveRequest`s across supervised worker processes.

    Use as a context manager::

        with SolverPool(PoolConfig(workers=4, memory_limit_mb=512)) as pool:
            results = pool.run(requests)

    ``run`` preserves input order in its output and may be called
    repeatedly; workers persist between calls.
    """

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config or PoolConfig()
        self.board = BreakerBoard(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            on_transition=self._breaker_transition,
        )
        self._workers: list[_Worker] = []
        self._selector = selectors.DefaultSelector()
        self._queue: deque[_Pending] = deque()
        self._completed: list[PoolResult] = []
        self._next_id = 0
        self._spawn_deaths = 0
        self._closed = False
        self._draining = False
        self._on_result: Callable[[PoolResult], None] | None = None

    @staticmethod
    def _breaker_transition(name: str, old: str, new: str) -> None:
        logger.info("breaker %r: %s -> %s", name, old, new)
        obs_trace.event("breaker_transition", breaker=name, old=old, new=new)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "SolverPool":
        self._ensure_workers()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._shutdown_worker(worker)
        self._workers.clear()
        self._selector.close()

    def _shutdown_worker(self, worker: _Worker) -> None:
        try:
            self._selector.unregister(worker.proc.stdout)
        except (KeyError, ValueError):
            pass
        if worker.proc.poll() is None:
            try:
                write_frame(worker.proc.stdin, {"kind": "shutdown"})
            except (OSError, ValueError):
                pass
        for stream in (worker.proc.stdin, worker.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            worker.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            worker.proc.kill()
            worker.proc.wait()

    def _spawn(self, index: int) -> _Worker:
        proc = spawn_worker_process(
            index,
            memory_limit_mb=self.config.memory_limit_mb,
            worker_env=self.config.worker_env,
        )
        worker = _Worker(index, proc)
        self._selector.register(proc.stdout, selectors.EVENT_READ, worker)
        obs_trace.event("worker_spawn", worker=index, pid=proc.pid)
        return worker

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.config.workers:
            self._workers.append(self._spawn(len(self._workers)))

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker in place; idempotent per worker."""
        try:
            slot = self._workers.index(worker)
        except ValueError:
            return  # already replaced (e.g. two frames blamed one worker)
        try:
            self._selector.unregister(worker.proc.stdout)
        except (KeyError, ValueError):
            pass
        for stream in (worker.proc.stdin, worker.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if worker.proc.poll() is None:
            worker.proc.kill()
        worker.proc.wait()
        if not worker.ready and not worker.completed:
            self._spawn_deaths += 1
            limit = self.config.workers * self.config.spawn_retry_limit
            if self._spawn_deaths > limit:
                raise ReproError(
                    "pool workers keep dying before serving any request "
                    f"({self._spawn_deaths} spawn deaths); see worker "
                    "stderr for the cause"
                )
        self._workers[slot] = self._spawn(worker.index)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[SolveRequest],
        on_result: Callable[[PoolResult], None] | None = None,
    ) -> list[PoolResult]:
        """Execute ``requests``; returns results in request order.

        ``on_result`` fires as each request finishes (completion order),
        which lets callers stream output (``scwsc batch``) and checkpoint
        incrementally.
        """
        self._on_result = on_result
        try:
            ids = [self.submit(request) for request in requests]
            outstanding = set(ids)
            collected: dict[int, PoolResult] = {}
            while outstanding:
                for pool_result in self.poll():
                    collected[pool_result.request_id] = pool_result
                    outstanding.discard(pool_result.request_id)
        finally:
            self._on_result = None
        return [collected[request_id] for request_id in ids]

    def solve(self, request: SolveRequest) -> PoolResult:
        """Run one request (convenience wrapper over :meth:`run`)."""
        return self.run([request])[0]

    def submit(self, request: SolveRequest) -> int:
        """Enqueue one request; returns its pool request id.

        The serving entry point: callers that cannot block (the
        ``scwsc serve`` dispatcher) submit work and collect finished
        :class:`PoolResult`\\ s from :meth:`poll` as they complete.
        """
        if self._closed:
            raise ValidationError("pool is closed")
        if self._draining:
            raise ValidationError("pool is draining; no new work accepted")
        self._ensure_workers()
        pending = self._prepare(request)
        self._queue.append(pending)
        return pending.request_id

    def poll(self, timeout: float = 0.25) -> list[PoolResult]:
        """One supervision step; returns requests that finished during it.

        Dispatches queued work to free workers, waits up to ``timeout``
        seconds for worker frames, enforces hard deadlines and reaps
        dead workers. Safe to call with nothing queued (used by
        :meth:`warm`). Results are returned in completion order exactly
        once; ``on_result`` callbacks passed to :meth:`run` fire from
        inside this method.
        """
        if self._closed:
            raise ValidationError("pool is closed")
        self._dispatch_all()
        select_timeout = min(max(timeout, 0.0), self._select_timeout())
        for key, _ in self._selector.select(select_timeout):
            self._on_readable(key.data)
        self._enforce_deadlines()
        self._reap_silent_deaths()
        completed = self._completed
        self._completed = []
        return completed

    def warm(self, timeout: float = 30.0) -> bool:
        """Spawn workers and block until all have sent ``ready`` frames.

        The daemon's warm-start hook: ``/readyz`` should not report
        ready while workers are still importing. Returns ``False`` when
        the timeout elapsed first (workers may still warm up later);
        raises :class:`ReproError` if workers keep dying at startup,
        exactly as dispatch-time spawning would.
        """
        self._ensure_workers()
        deadline = time.monotonic() + timeout
        while not all(worker.ready for worker in self._workers):
            if time.monotonic() >= deadline:
                return False
            self.poll(0.05)
        return True

    def drain(self, timeout: float | None = None) -> list[PoolResult]:
        """Finish queued and in-flight work, accepting nothing new.

        The graceful-shutdown hook: after ``drain`` returns, every
        request submitted before it has either completed (results are
        returned here, and through ``poll``'s usual ``on_result`` path)
        or — when ``timeout`` elapsed first — remains in flight for the
        caller to abandon via :meth:`close`. Hard deadlines keep being
        enforced throughout, so a drain bounded by request timeouts
        terminates. The pool stays draining afterwards; :meth:`close`
        is the expected next call.
        """
        self._draining = True
        results: list[PoolResult] = []
        give_up_at = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while self._queue or any(w.busy for w in self._workers):
            if give_up_at is not None and time.monotonic() >= give_up_at:
                break
            results.extend(self.poll(0.1))
        results.extend(self._completed)
        self._completed = []
        return results

    def breaker_snapshot(self) -> dict:
        return self.board.snapshot()

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet dispatched to a worker."""
        return len(self._queue)

    @property
    def busy_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.busy)

    @property
    def ready_workers(self) -> int:
        """Workers that have finished importing and sent ``ready``."""
        return sum(1 for worker in self._workers if worker.ready)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _prepare(self, request: SolveRequest) -> _Pending:
        effective = (
            request.timeout
            if request.timeout is not None
            else self.config.request_timeout
        )
        deadline_at = (
            time.monotonic() + effective
            if self.config.absolute_deadlines and effective is not None
            else None
        )
        pending = _Pending(self._next_id, request, effective, deadline_at)
        self._next_id += 1
        return pending

    def _dispatch_all(self) -> None:
        for worker in list(self._workers):
            if not self._queue:
                return
            if worker.busy or worker.proc.poll() is not None:
                continue
            self._dispatch(worker, self._queue.popleft())

    def _dispatch(self, worker: _Worker, pending: _Pending) -> None:
        request = pending.request
        attempt_timeout = pending.effective_timeout
        if pending.deadline_at is not None:
            # Absolute deadline: this attempt gets only what is left of
            # the end-to-end budget. A spent budget skips the worker and
            # degrades immediately — the serve path's guarantee that
            # queue wait and requeues cannot stretch a client's deadline.
            attempt_timeout = pending.deadline_at - time.monotonic()
            if attempt_timeout <= _MIN_DISPATCH_SLICE:
                pending.attempts.append(
                    {
                        "attempt": pending.dispatches,
                        "worker": None,
                        "pid": None,
                        "outcome": "deadline-exhausted",
                        "detail": "end-to-end budget spent before dispatch",
                        "stage": None,
                    }
                )
                self._finalize_fallback(pending, None)
                return
        payload = encode_request(request, pending.request_id)
        payload["timeout"] = attempt_timeout
        if obs_trace.enabled():
            # The parent has a tracer, so ask the worker to capture its
            # solver spans; they come home in the result frame and are
            # replayed under this request's id (see _complete).
            payload["trace"] = True
        if request.solver == "resilient":
            from repro.resilience.chain import DEFAULT_CHAIN

            chain = tuple(request.chain or DEFAULT_CHAIN)
            allowed, routed = self.board.filter_chain(chain)
            payload["chain"] = list(allowed)
            if routed:
                pending.routed_around = sorted(set(routed))
        try:
            write_frame(worker.proc.stdin, payload)
        except (OSError, ValueError):
            # Worker died before it could accept work: not the request's
            # fault, so no attempt is charged.
            self._queue.appendleft(pending)
            self._respawn(worker)
            return
        pending.dispatches += 1
        worker.pending = pending
        worker.dispatched_at = time.monotonic()
        pending.note_dispatched(worker.dispatched_at)
        worker.last_stage = None
        if pending.deadline_at is not None:
            worker.kill_at = pending.deadline_at + self.config.grace
        else:
            worker.kill_at = (
                worker.dispatched_at + pending.effective_timeout
                + self.config.grace
                if pending.effective_timeout is not None
                else None
            )
        worker.chaos_kill_at = None
        injector = faults.active()
        if injector is not None and injector.worker_kill_scheduled():
            worker.chaos_kill_at = worker.dispatched_at + _CHAOS_KILL_DELAY
        if obs_trace.recording():
            obs_trace.event(
                "dispatch",
                request_id=pending.request_id,
                trace_id=pending.trace_id,
                worker=worker.index,
                pid=worker.pid,
                attempt=pending.dispatches,
                solver=request.solver,
                timeout=attempt_timeout,
                routed_around=list(pending.routed_around),
            )

    def _select_timeout(self) -> float:
        now = time.monotonic()
        horizon = 0.25
        for worker in self._workers:
            for at in (worker.kill_at, worker.chaos_kill_at):
                if at is not None:
                    horizon = min(horizon, at - now)
        return max(0.01, horizon)

    def _on_readable(self, worker: _Worker) -> None:
        try:
            data = os.read(worker.proc.stdout.fileno(), 1 << 16)
        except OSError:
            data = b""
        if not data:
            self._worker_died(worker)
            return
        try:
            frames = worker.reader.feed(data)
        except ProtocolError as error:
            self._worker_failed(
                worker, "ipc-error", f"unreadable frame stream: {error}"
            )
            return
        for frame in frames:
            self._handle_frame(worker, frame)

    def _handle_frame(self, worker: _Worker, frame: dict) -> None:
        kind = frame.get("kind")
        if kind == "ready":
            worker.ready = True
            self._spawn_deaths = 0
            obs_trace.event(
                "worker_ready", worker=worker.index, pid=worker.pid
            )
        elif kind == "stage":
            worker.last_stage = frame.get("stage")
        elif kind == "result":
            self._complete(worker, frame)
        elif kind == "pong":
            pass
        else:
            self._worker_failed(
                worker, "ipc-error", f"unexpected frame kind {kind!r}"
            )

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if not worker.busy:
                continue
            if worker.chaos_kill_at is not None and now >= worker.chaos_kill_at:
                obs_trace.event(
                    "chaos_kill",
                    worker=worker.index,
                    pid=worker.pid,
                    request_id=worker.pending.request_id,
                    trace_id=worker.pending.trace_id,
                )
                self._hard_kill(worker)
                self._worker_failed(
                    worker,
                    "killed",
                    "SIGKILL injected by the chaos schedule mid-solve",
                )
            elif worker.kill_at is not None and now >= worker.kill_at:
                logger.warning(
                    "pool worker %d (pid %d) blew its hard deadline "
                    "(timeout %ss + grace %gs); SIGKILL",
                    worker.index, worker.pid, pendings(worker),
                    self.config.grace,
                )
                obs_trace.event(
                    "hard_timeout",
                    worker=worker.index,
                    pid=worker.pid,
                    request_id=worker.pending.request_id,
                    trace_id=worker.pending.trace_id,
                    timeout=worker.pending.effective_timeout,
                    grace=self.config.grace,
                )
                self._hard_kill(worker)
                self._worker_failed(
                    worker,
                    "hard-timeout",
                    f"no answer within timeout "
                    f"{pendings(worker)}s + grace {self.config.grace}s; "
                    "worker SIGKILLed",
                )

    def _reap_silent_deaths(self) -> None:
        # EOF normally reports death, but a worker whose stdout was
        # already drained can exit without a readable event.
        for worker in list(self._workers):
            if worker.proc.poll() is not None and worker in self._workers:
                self._worker_died(worker)

    def _hard_kill(self, worker: _Worker) -> None:
        if worker.proc.poll() is None:
            try:
                worker.proc.send_signal(signal.SIGKILL)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Failure and completion handling
    # ------------------------------------------------------------------
    def _death_detail(self, worker: _Worker) -> str:
        code = worker.proc.poll()
        if code is None:
            return "worker pipe closed while the process is still running"
        if code < 0:
            signame = signal.Signals(-code).name if -code in [
                s.value for s in signal.Signals
            ] else str(-code)
            hint = " (possible OOM kill)" if code == -signal.SIGKILL else ""
            return f"worker died with signal {signame}{hint}"
        return f"worker exited with status {code}"

    def _worker_died(self, worker: _Worker) -> None:
        detail = self._death_detail(worker)
        pending = worker.pending
        logger.warning(
            "pool worker %d (pid %d): %s%s",
            worker.index, worker.pid, detail,
            (
                f" (request {pending.request_id} in flight)"
                if pending is not None
                else ""
            ),
        )
        obs_trace.event(
            "worker_death",
            worker=worker.index,
            pid=worker.pid,
            request_id=pending.request_id if pending is not None else None,
            trace_id=pending.trace_id if pending is not None else None,
            detail=detail,
        )
        self._worker_failed(worker, "worker-died", detail)

    def _worker_failed(self, worker: _Worker, outcome: str, detail: str
                       ) -> None:
        """A worker is unusable; requeue its request and respawn it."""
        pending = worker.pending
        stage = worker.last_stage
        worker.pending = None
        worker.kill_at = None
        worker.chaos_kill_at = None
        self._respawn(worker)
        if pending is None or pending.done:
            return
        pending.note_attempt_end(time.monotonic())
        self._record_failure(
            pending, worker, outcome, detail,
            stage or self._blame_default(pending),
        )

    def _blame_default(self, pending: _Pending) -> str | None:
        if pending.request.solver != "resilient":
            return pending.request.solver
        chain = pending.request.chain
        return chain[0] if chain else "exact"

    def _record_failure(
        self,
        pending: _Pending,
        worker: _Worker | None,
        outcome: str,
        detail: str,
        blame: str | None,
        partial: CoverResult | None = None,
    ) -> None:
        pending.attempts.append(
            {
                "attempt": pending.dispatches,
                "worker": worker.index if worker is not None else None,
                "pid": worker.pid if worker is not None else None,
                "outcome": outcome,
                "detail": detail,
                "stage": blame,
            }
        )
        self.board.record_failure(blame)
        if pending.dispatches <= self.config.max_requeues:
            obs_trace.event(
                "requeue",
                request_id=pending.request_id,
                trace_id=pending.trace_id,
                attempt=pending.dispatches,
                outcome=outcome,
                blame=blame,
            )
            self._queue.append(pending)
        else:
            self._finalize_fallback(pending, partial)

    def _complete(self, worker: _Worker, frame: dict) -> None:
        pending = worker.pending
        worker.pending = None
        worker.kill_at = None
        worker.chaos_kill_at = None
        worker.completed += 1
        if pending is None or pending.done:
            return
        pending.note_attempt_end(time.monotonic())
        ring = frame.get("flightrec")
        if isinstance(ring, list) and ring:
            # The worker's own flight-recorder ring rides every result
            # frame; keep the latest per worker so a later SIGKILL still
            # leaves its last words in postmortem bundles.
            from repro.obs import flightrec as obs_flightrec

            recorder = obs_flightrec.get_recorder()
            if recorder is not None:
                recorder.note_worker_ring(worker.index, ring)
        records = frame.get("trace")
        if isinstance(records, list) and records and obs_trace.enabled():
            # When the request carried a traceparent, the worker subtree
            # is re-parented under the caller's span, so the whole
            # request renders as one tree.
            ctx = pending.trace_ctx
            obs_trace.replay(
                records,
                root_parent=ctx.span_id if ctx is not None else None,
                trace_id=pending.trace_id,
                request_id=pending.request_id,
                worker=worker.index,
                attempt=pending.dispatches,
            )
        rss = frame.get("peak_rss_bytes")
        if isinstance(rss, (int, float)) and rss > 0:
            self._note_worker_rss(worker, pending, int(rss))
        if frame.get("id") != pending.request_id:
            self._record_failure(
                pending, worker, "ipc-error",
                f"result frame for id {frame.get('id')!r}, expected "
                f"{pending.request_id}",
                worker.last_stage or self._blame_default(pending),
            )
            return
        if frame.get("status") == "ok":
            self._complete_ok(worker, pending, frame)
        else:
            self._complete_error(worker, pending, frame)
        if (
            isinstance(rss, (int, float))
            and rss > 0
            and pending.attempts
            and pending.attempts[-1]["attempt"] == pending.dispatches
        ):
            pending.attempts[-1]["peak_rss_bytes"] = int(rss)

    def _note_worker_rss(
        self, worker: _Worker, pending: _Pending, rss: int
    ) -> None:
        """Record a worker-reported peak RSS: gauge + trace event.

        The gauge keeps the latest value per worker (``ru_maxrss`` is a
        process-lifetime high-water mark, so it only ever rises); the
        attempt record in provenance is attached by :meth:`_complete`
        once the attempt's outcome is known.
        """
        from repro.obs.metrics import get_registry

        get_registry().gauge(
            "scwsc_worker_peak_rss_bytes",
            "Peak resident set size reported by each pool worker",
        ).set(rss, worker=worker.index)
        if obs_trace.recording():
            obs_trace.event(
                "worker_peak_rss",
                request_id=pending.request_id,
                worker=worker.index,
                peak_rss_bytes=rss,
            )

    def _complete_ok(self, worker: _Worker, pending: _Pending, frame: dict
                     ) -> None:
        system = pending.request.system
        resilience = frame.get("resilience")
        try:
            claimed = result_from_dict(frame["result"])
        except (KeyError, TypeError, ValueError) as error:
            self._record_failure(
                pending, worker, "ipc-error",
                f"undecodable result payload: {error!r}",
                worker.last_stage or self._blame_default(pending),
            )
            return
        if any(
            not (0 <= set_id < system.n_sets) for set_id in claimed.set_ids
        ):
            self._record_failure(
                pending, worker, "rejected",
                "result names set ids outside the parent's system",
                worker.last_stage or self._blame_default(pending),
            )
            return
        # Rebuild against the parent's own system: real label objects
        # back in place, worker-claimed numbers kept but re-verified
        # below so a lying or corrupted answer cannot be returned.
        result = CoverResult(
            algorithm=claimed.algorithm,
            set_ids=claimed.set_ids,
            labels=tuple(
                system.label_of(set_id) for set_id in claimed.set_ids
            ),
            total_cost=claimed.total_cost,
            covered=claimed.covered,
            n_elements=claimed.n_elements,
            feasible=claimed.feasible,
            params=dict(claimed.params),
            metrics=claimed.metrics,
        )
        k_bound = None
        coverage_target = None
        if isinstance(resilience, dict):
            k_bound = resilience.get("k_bound")
            coverage_target = resilience.get("coverage_target")
            result.params["resilience"] = resilience
        problems = verify_result(
            system, result, k=k_bound, s_hat=coverage_target
        )
        if problems:
            self._record_failure(
                pending, worker, "rejected",
                "worker answer failed parent-side verification: "
                + "; ".join(problems),
                worker.last_stage or self._blame_default(pending),
            )
            return
        self._credit_breakers(pending, resilience)
        pending.attempts.append(
            {
                "attempt": pending.dispatches,
                "worker": worker.index,
                "pid": worker.pid,
                "outcome": "ok",
                "detail": "",
                "stage": (
                    resilience.get("stage")
                    if isinstance(resilience, dict)
                    else pending.request.solver
                ),
            }
        )
        self._finalize(pending, "ok", result)

    def _credit_breakers(self, pending: _Pending, resilience) -> None:
        if pending.request.solver != "resilient":
            self.board.record_success(pending.request.solver)
            return
        if not isinstance(resilience, dict):
            return
        for record in resilience.get("stages", []):
            stage = record.get("stage")
            status = record.get("status")
            if status == "ok":
                self.board.record_success(stage)
            elif status in _STAGE_FAILURE_STATUSES:
                self.board.record_failure(stage)

    def _complete_error(self, worker: _Worker, pending: _Pending,
                        frame: dict) -> None:
        error_type = str(frame.get("error_type", "Exception"))
        message = str(frame.get("message", ""))
        blame = worker.last_stage or self._blame_default(pending)
        partial = None
        if isinstance(frame.get("partial"), dict):
            try:
                partial = result_from_dict(frame["partial"])
            except (KeyError, TypeError, ValueError):
                partial = None
        if error_type == "ValidationError":
            # Caller bug: deterministic, never retried, no fallback that
            # could mask it.
            pending.attempts.append(
                {
                    "attempt": pending.dispatches,
                    "worker": worker.index,
                    "pid": worker.pid,
                    "outcome": f"error:{error_type}",
                    "detail": message,
                    "stage": blame,
                }
            )
            self._finalize(pending, "failed", None, failure=message)
            return
        if error_type in _DETERMINISTIC_ERRORS:
            if error_type != "InfeasibleError":
                self.board.record_failure(blame)
            pending.attempts.append(
                {
                    "attempt": pending.dispatches,
                    "worker": worker.index,
                    "pid": worker.pid,
                    "outcome": f"error:{error_type}",
                    "detail": message,
                    "stage": blame,
                }
            )
            self._finalize_fallback(pending, partial)
            return
        retryable_note = (
            "" if error_type in _RETRYABLE_ERRORS else " (unclassified)"
        )
        self._record_failure(
            pending, worker, f"error:{error_type}",
            message + retryable_note, blame, partial=partial,
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finalize(self, pending: _Pending, status: str,
                  result: CoverResult | None, failure: str | None = None
                  ) -> None:
        pending.done = True
        provenance = pending.provenance()
        if pending.routed_around:
            provenance["routed_around"] = pending.routed_around
        if failure is not None:
            provenance["failure"] = failure
        if status == "fallback":
            provenance["fallback"] = "parent-universal"
        if result is not None:
            result.params["pool"] = provenance
        pool_result = PoolResult(
            request_id=pending.request_id,
            tag=pending.request.tag,
            status=status,
            result=result,
            provenance=provenance,
        )
        self._completed.append(pool_result)
        obs_trace.event(
            "request_complete",
            request_id=pending.request_id,
            trace_id=pending.trace_id,
            status=status,
            attempts=len(pending.attempts),
        )
        if self._on_result is not None:
            self._on_result(pool_result)

    def _finalize_fallback(self, pending: _Pending,
                           partial: CoverResult | None) -> None:
        """Retry budget spent: answer from the parent, or fail honestly."""
        obs_trace.event(
            "fallback",
            request_id=pending.request_id,
            trace_id=pending.trace_id,
            attempts=len(pending.attempts),
        )
        request = pending.request
        last = pending.attempts[-1] if pending.attempts else {}
        failure = (
            f"{last.get('outcome', 'unknown')}: {last.get('detail', '')}"
        ).strip(": ")
        try:
            result = universal_result(request.system, request.k, request.s_hat)
        except InfeasibleError as error:
            fallback_partial = partial or error.partial
            self._finalize(
                pending, "failed", fallback_partial, failure=failure
            )
            return
        except ValidationError as error:
            self._finalize(pending, "failed", None, failure=str(error))
            return
        problems = verify_result(
            request.system, result, k=request.k, s_hat=request.s_hat
        )
        if problems:  # pragma: no cover - universal_result is trusted
            self._finalize(
                pending, "failed", None,
                failure=failure + "; fallback failed verification: "
                + "; ".join(problems),
            )
            return
        self._finalize(pending, "fallback", result, failure=failure)


def pendings(worker: _Worker) -> str:
    """The timeout of the worker's current request, for log text."""
    pending = worker.pending
    if pending is None or pending.effective_timeout is None:
        return "?"
    return f"{pending.effective_timeout:g}"


def run_isolated(
    system,
    k: int,
    s_hat: float,
    chain: Sequence[str] | None = None,
    timeout: float | None = None,
    memory_limit_mb: int | None = None,
    seed: int = 0,
    stage_options: dict | None = None,
    max_retries: int = 2,
    strict: bool = False,
    exact_node_limit: int | None = None,
    on_failure: str = "partial",
    max_requeues: int = 2,
    grace: float = 2.0,
    worker_env: dict | None = None,
    backend: str | None = None,
) -> CoverResult:
    """One process-isolated resilient solve; the pool-of-one convenience.

    Mirrors :func:`repro.resilience.resilient_solve`'s contract (and is
    what its ``isolation="process"`` mode delegates to): returns a
    verified result whose ``params`` carry both the in-worker
    ``resilience`` provenance and the supervisor's ``pool`` provenance.
    ``on_failure`` applies when even the parent-side fallback cannot
    produce a feasible answer. ``backend`` rides the request options
    into the worker's ``resilient_solve``.
    """
    if on_failure not in ("partial", "raise"):
        raise ValidationError(
            f"on_failure must be 'partial' or 'raise', got {on_failure!r}"
        )
    if strict:
        system.validate_strict()
    options: dict = {"max_retries": max_retries, "strict": strict}
    if exact_node_limit is not None:
        options["exact_node_limit"] = exact_node_limit
    if backend is not None:
        options["backend"] = backend
    request = SolveRequest(
        system=system,
        k=k,
        s_hat=s_hat,
        solver="resilient",
        chain=tuple(chain) if chain is not None else None,
        timeout=timeout,
        stage_options=stage_options,
        options=options,
        seed=seed,
    )
    config = PoolConfig(
        workers=1,
        memory_limit_mb=memory_limit_mb,
        grace=grace,
        max_requeues=max_requeues,
        worker_env=worker_env,
    )
    with SolverPool(config) as pool:
        outcome = pool.solve(request)
    result = outcome.result
    if result is None:
        from repro.core.result import Metrics, make_result

        result = make_result(
            algorithm="resilient_solve",
            chosen=[],
            labels=[],
            total_cost=0.0,
            covered=0,
            n_elements=system.n_elements,
            feasible=system.required_coverage(s_hat) == 0,
            params={"k": k, "s_hat": s_hat, "pool": outcome.provenance},
            metrics=Metrics(),
        )
    if not result.feasible and on_failure == "raise":
        raise InfeasibleError(
            "run_isolated: no feasible verified answer "
            f"({outcome.provenance.get('failure', 'unknown failure')})",
            partial=result,
        )
    return result
