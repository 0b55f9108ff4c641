"""Pool worker: one supervised child process executing solve requests.

Run as ``python -m repro.resilience.pool.worker``; the supervisor speaks
the length-prefixed JSON protocol (:mod:`.protocol`) over stdin/stdout.
Design points that matter for robustness:

* **The frame stream owns stdout.** At startup the real stdout fd is
  duplicated for frames and fd 1 is re-pointed at stderr, so a stray
  ``print`` anywhere in the solver stack degrades to log noise instead
  of corrupting the protocol.
* **Memory guard.** ``--memory-limit-mb`` sets ``RLIMIT_AS`` to the
  interpreter's post-import baseline plus the given headroom. A solve
  that allocates past it gets a real ``MemoryError`` (reported as a
  structured failure) or, if allocation happens inside C code that
  cannot recover, the process dies and the supervisor requeues.
* **Hang diagnostics.** With ``REPRO_DEBUG_HANG=1`` a
  :mod:`faulthandler` watchdog is armed for each request's cooperative
  timeout, so a worker that blows its deadline dumps the stuck stack to
  stderr before the supervisor's hard kill lands.
* **Chaos hooks.** ``REPRO_CHAOS`` in the worker's environment drives
  the child-side process faults (self-SIGKILL, hang, memory hog, IPC
  frame corruption) — see :mod:`repro.resilience.faults`.

The worker never lets a request's failure end the process: every
exception that can be caught becomes a structured ``result`` frame with
``status="error"``. Exits happen only on clean ``shutdown``, EOF, an
unrecoverable protocol error on stdin, or the kinds of death (SIGKILL,
OOM) that are precisely the supervisor's job to detect.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
import traceback
import types
import typing

from repro.core.result import CoverResult
from repro.errors import ProtocolError, ReproError, ValidationError
from repro.obs import trace as obs_trace
from repro.obs.flightrec import RingBuffer
from repro.obs.log import console_logging
from repro.resilience import faults
from repro.resilience.debug import hang_watchdog
from repro.resilience.pool.protocol import (
    SolveRequest,
    held_systems,
    holds_system,
    read_frame,
    request_from_payload,
    system_from_payload,
    write_frame,
)

__all__ = [
    "check_request_fields", "main", "peak_rss_bytes", "run_request",
    "solve_request_from_json",
]

#: Cap on trace records shipped per result frame: an unexpectedly hot
#: trace must degrade to truncation, not to an oversized frame that the
#: supervisor would treat as worker failure.
_MAX_TRACE_RECORDS = 50_000

#: Worker-side flight-recorder ring, attached to the worker's tracer at
#: start: the newest records (the solve start/stage/end lifecycle events,
#: plus a traced request's spans), shipped on *every* result frame. A
#: worker is killed with SIGKILL (hard timeout, chaos, OOM) precisely
#: when it cannot flush anything, so its last words must already be with
#: the supervisor — the cost is ~a few KB per frame.
_RING = RingBuffer(64)


def _solver_registry() -> dict:
    """Named solvers the worker can run directly (grid cells)."""
    from repro.core.fallbacks import greedy_partial
    from repro.resilience.chain import STAGE_SOLVERS

    return {**STAGE_SOLVERS, "greedy_partial": greedy_partial}


#: Arguments :func:`run_request` (or the chain, for a stage) passes to a
#: solver itself; request options may not name them.
_SOLVER_ARGS = frozenset({"system", "k", "s_hat", "deadline"})
_CHAIN_ARGS = _SOLVER_ARGS | {
    "chain", "timeout", "seed", "stage_options", "on_stage", "on_failure",
}


def _check_keys(field: str, options: dict, fn, reserved: frozenset) -> None:
    """Option names must be parameters of ``fn``, values of their type."""
    parameters = inspect.signature(fn).parameters
    allowed = set(parameters) - reserved
    unknown = sorted(set(options) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown key(s) {unknown} in {field}; "
            f"expected any of {sorted(allowed)}"
        )
    hints = typing.get_type_hints(fn)
    for name, value in options.items():
        hint = hints.get(name)
        if hint is None and parameters[name].default not in (
            inspect.Parameter.empty, None
        ):
            hint = type(parameters[name].default)
        if hint is not None and not _accepts(hint, value):
            raise ValidationError(
                f"{field} key {name!r} must be {_describe(hint)}, "
                f"got {value!r}"
            )


def _accepts(hint, value) -> bool:
    """Whether a JSON value fits a parameter annotation.

    Numbers fit ``float`` and integers ``int``, never a bool; a
    ``Literal`` takes its listed values; a bare ``list`` or ``dict``
    takes a JSON array or object. Other shapes (callables, parametrized
    containers) are left to the callable.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_accepts(arm, value) for arm in typing.get_args(hint))
    if origin is typing.Literal:
        return any(
            type(value) is type(arg) and value == arg
            for arg in typing.get_args(hint)
        )
    if hint is type(None):
        return value is None
    if hint in (bool, str, list, dict):
        return isinstance(value, hint)
    if hint in (int, float):
        numbers = int if hint is int else (int, float)
        return isinstance(value, numbers) and not isinstance(value, bool)
    return True


def _describe(hint) -> str:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(arm) for arm in typing.get_args(hint))
    if origin is typing.Literal:
        return "one of " + ", ".join(map(repr, typing.get_args(hint)))
    return {
        type(None): "null", bool: "true or false", str: "a string",
        int: "an integer", float: "a number", list: "a list",
        dict: "an object",
    }.get(hint, str(hint))


def check_request_fields(
    solver: str,
    chain: tuple[str, ...] | None,
    options: dict | None,
    stage_options: dict | None,
) -> None:
    """Reject a request :func:`run_request` would fail on, before dispatch.

    The solver must be registered (or ``"resilient"``), chain stages
    must be known, and ``options`` / ``stage_options`` keys must be
    keyword parameters of the callable they reach, minus the arguments
    the worker and the chain pass themselves, with values of the
    parameter's annotation (see :func:`_accepts`). Raises
    :class:`~repro.errors.ValidationError`.
    """
    from repro.resilience.chain import STAGE_SOLVERS, resilient_solve

    registry = _solver_registry()
    if solver == "resilient":
        _check_keys("'options'", options or {}, resilient_solve, _CHAIN_ARGS)
    elif solver in registry:
        _check_keys("'options'", options or {}, registry[solver], _SOLVER_ARGS)
    else:
        raise ValidationError(
            f"unknown solver {solver!r}; "
            f"known: {sorted(registry)} or 'resilient'"
        )
    unknown = [stage for stage in chain or () if stage not in STAGE_SOLVERS]
    if unknown:
        raise ValidationError(
            f"unknown chain stage(s) {unknown}; known: {sorted(STAGE_SOLVERS)}"
        )
    for stage, stage_opts in (stage_options or {}).items():
        if stage not in STAGE_SOLVERS:
            raise ValidationError(
                f"unknown stage {stage!r} in 'stage_options'; "
                f"known: {sorted(STAGE_SOLVERS)}"
            )
        if not isinstance(stage_opts, dict):
            raise ValidationError(
                f"'stage_options' entry {stage!r} must be an object"
            )
        _check_keys(
            f"'stage_options' entry {stage!r}", stage_opts,
            STAGE_SOLVERS[stage], _SOLVER_ARGS,
        )


#: The fields of a JSON solve request (a ``/solve`` body, a ``/batch``
#: entry, a ``scwsc batch`` line), each with the type it must have
#: (``system`` is checked by :func:`system_from_payload`).
REQUEST_FIELDS = {
    "system": None, "k": int, "s": float | None, "s_hat": float | None,
    "deadline": float | None, "solver": str, "chain": list | None,
    "seed": int, "tag": str | None, "options": dict | None,
    "stage_options": dict | None,
}


def solve_request_from_json(payload, system=None) -> SolveRequest:
    """Validate one JSON solve request into a :class:`SolveRequest`.

    ``system``, when given, stands in for a missing ``system`` field. The
    ``timeout`` is the request's ``deadline`` or ``None``: each caller
    applies its own deadline policy. Raises :class:`ValidationError` or,
    for a bad system payload, :class:`ProtocolError`.
    """
    if not isinstance(payload, dict):
        raise ValidationError("a solve request must be a JSON object")
    unknown = sorted(set(payload) - set(REQUEST_FIELDS))
    if unknown:
        raise ValidationError(
            f"unknown field(s) {unknown}; accepted: {sorted(REQUEST_FIELDS)}"
        )
    if system is None or "system" in payload:
        if not isinstance(payload.get("system"), dict):
            raise ValidationError("missing or invalid 'system' object")
        system = system_from_payload(payload["system"])
    fields = {"solver": "resilient", "seed": 0, **payload}
    for name, hint in REQUEST_FIELDS.items():
        if hint is not None and not _accepts(hint, fields.get(name)):
            raise ValidationError(f"'{name}' must be {_describe(hint)}")
    s_hat = fields.get("s", fields.get("s_hat"))
    if s_hat is None:
        raise ValidationError("'s' (coverage target) must be a number")
    deadline = fields.get("deadline")
    if deadline is not None and deadline <= 0:
        raise ValidationError(f"'deadline' must be > 0, got {deadline}")
    chain = fields.get("chain")
    if chain is not None:
        if not all(isinstance(stage, str) for stage in chain):
            raise ValidationError("'chain' must be a list of stage names")
        chain = tuple(chain)
    check_request_fields(
        fields["solver"], chain, fields.get("options"),
        fields.get("stage_options"),
    )
    return SolveRequest(
        system=system, k=fields["k"], s_hat=float(s_hat),
        solver=fields["solver"], chain=chain,
        timeout=None if deadline is None else float(deadline),
        stage_options=fields.get("stage_options"),
        options=fields.get("options"), seed=fields["seed"],
        tag=fields.get("tag"),
    )


def run_request(request: SolveRequest, on_stage=None) -> CoverResult:
    """Execute one request in-process (shared by worker and tests)."""
    options = dict(request.options or {})
    if request.solver == "resilient":
        from repro.resilience.chain import DEFAULT_CHAIN, resilient_solve

        options.pop("on_failure", None)
        return resilient_solve(
            request.system,
            request.k,
            request.s_hat,
            chain=request.chain or DEFAULT_CHAIN,
            timeout=request.timeout,
            seed=request.seed,
            stage_options=request.stage_options or {},
            on_stage=on_stage,
            on_failure="partial",
            **options,
        )
    registry = _solver_registry()
    if request.solver not in registry:
        raise ProtocolError(
            f"unknown solver {request.solver!r}; "
            f"known: {sorted(registry)} or 'resilient'"
        )
    fn = registry[request.solver]
    takes_deadline = "deadline" in inspect.signature(fn).parameters
    if takes_deadline and request.timeout is not None:
        from repro.resilience.deadline import Deadline

        options.setdefault("deadline", Deadline.after(request.timeout))
    if on_stage is not None:
        on_stage(request.solver)
    return fn(request.system, request.k, request.s_hat, **options)


def _result_payload(request_id: int, result: CoverResult) -> dict:
    # params["resilience"] is a nested dict that CoverResult.to_dict
    # would silently drop; ship it as its own key so the supervisor can
    # reattach it.
    resilience = result.params.pop("resilience", None)
    return {
        "kind": "result",
        "id": request_id,
        "status": "ok",
        "result": result.to_dict(),
        "resilience": resilience,
    }


def _error_payload(request_id: int, error: BaseException) -> dict:
    payload = {
        "kind": "result",
        "id": request_id,
        "status": "error",
        "error_type": type(error).__name__,
        "message": str(error) or type(error).__name__,
        "exit_code": getattr(error, "exit_code", 1),
    }
    partial = getattr(error, "partial", None)
    if isinstance(partial, CoverResult):
        partial.params.pop("resilience", None)
        payload["partial"] = partial.to_dict()
    return payload


def _handle_solve(out, payload: dict) -> None:
    system_cached = holds_system(payload.get("system_fp"))
    request_id, request = request_from_payload(payload)
    injector = faults.active()

    def emit_stage(stage: str) -> None:
        # Stage frames are tiny and drive circuit-breaker blame; they
        # are never chaos-corrupted so blame attribution itself stays
        # deterministic under IPC-corruption storms.
        obs_trace.event("worker_stage", request=request_id, stage=stage)
        write_frame(
            out, {"kind": "stage", "id": request_id, "stage": stage}
        )

    obs_trace.event(
        "worker_solve_start",
        request=request_id,
        solver=request.solver,
        k=request.k,
        timeout=request.timeout,
        tag=request.tag,
        system_cached=system_cached,
    )
    with (
        obs_trace.capture() if request.trace else contextlib.nullcontext([])
    ) as trace_records:
        try:
            if injector is not None:
                injector.worker_entry()
            with hang_watchdog(
                request.timeout, context=f"request {request_id}"
            ):
                result = run_request(request, on_stage=emit_stage)
            response = _result_payload(request_id, result)
        except (ReproError, MemoryError, ArithmeticError, ValueError,
                KeyError, IndexError, TypeError, AttributeError,
                RecursionError) as error:
            response = _error_payload(request_id, error)
            traceback.print_exc(file=sys.stderr)
        dropped = len(trace_records) - _MAX_TRACE_RECORDS
        if dropped > 0:
            # Keep the newest records: spans are written as they close,
            # so every kept span's parent closes later and is kept too.
            del trace_records[:dropped]
            obs_trace.event("trace_truncated", dropped_records=dropped)
    if trace_records:
        # Error frames keep whatever was captured before the failure:
        # a partial trace is exactly what explains a failed attempt.
        response["trace"] = trace_records
    # Peak RSS rides every result frame (one getrusage call): the
    # supervisor turns it into attempt provenance and a worker memory
    # gauge, giving the parent a memory story it cannot observe itself.
    rss = peak_rss_bytes()
    if rss is not None:
        response["peak_rss_bytes"] = rss
    # The systems this worker holds now: the supervisor sends the next
    # request's system text only when its fingerprint is not among them.
    response["systems"] = held_systems()
    obs_trace.event(
        "worker_solve_end", request=request_id, status=response.get("status")
    )
    # The worker's black box rides home on every frame — if the next
    # request SIGKILLs this process, the supervisor already holds the
    # freshest ring for the postmortem bundle.
    response["flightrec"] = _RING.snapshot()
    write_frame(out, response, injector=injector)


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here so the result frame, attempt provenance and the
    ``scwsc_worker_peak_rss_bytes`` gauge all carry bytes. ``None``
    where :mod:`resource` is missing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024


def _apply_memory_limit(headroom_mb: int | None) -> int | None:
    """Set ``RLIMIT_AS`` to current usage + headroom; None if not set."""
    if not headroom_mb:
        return None
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        print(
            "pool worker: resource module unavailable, memory limit "
            "not applied",
            file=sys.stderr,
        )
        return None
    limit = _current_vm_bytes() + headroom_mb * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError) as error:  # pragma: no cover
        print(
            f"pool worker: could not set RLIMIT_AS: {error}",
            file=sys.stderr,
        )
        return None
    return limit


def _current_vm_bytes() -> int:
    """Address-space size right now (baseline for the headroom limit)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return 512 * 1024 * 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-pool-worker")
    parser.add_argument("--memory-limit-mb", type=int, default=None)
    parser.add_argument("--worker-id", type=int, default=0)
    args = parser.parse_args(argv)
    # Worker stderr is operator-visible through the supervisor, so give
    # repro loggers (watchdog notices, etc.) a handler honouring
    # REPRO_LOG_LEVEL.
    console_logging()
    obs_trace.add_sink(_RING.append)

    # Claim the frame stream, then point fd 1 at stderr so stray prints
    # from solver code cannot corrupt the protocol.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    inp = sys.stdin.buffer

    limit = _apply_memory_limit(args.memory_limit_mb)
    try:
        write_frame(
            out,
            {
                "kind": "ready",
                "pid": os.getpid(),
                "worker_id": args.worker_id,
                "memory_limit_bytes": limit,
            },
        )
    except BrokenPipeError:  # supervisor shut down while we were starting
        return 0

    while True:
        try:
            frame = read_frame(inp)
        except ProtocolError as error:
            # A lying stdin cannot be resynchronized; die loudly and let
            # the supervisor respawn a clean worker.
            print(f"pool worker: protocol error on stdin: {error}",
                  file=sys.stderr)
            return ProtocolError.exit_code
        if frame is None:  # supervisor closed the pipe
            return 0
        kind = frame.get("kind")
        try:
            if kind == "shutdown":
                return 0
            if kind == "ping":
                write_frame(out, {"kind": "pong", "pid": os.getpid()})
            elif kind == "solve":
                _handle_solve(out, frame)
            else:
                print(f"pool worker: ignoring unknown frame kind {kind!r}",
                      file=sys.stderr)
        except BrokenPipeError:  # supervisor died; nothing left to serve
            return 0


if __name__ == "__main__":
    sys.exit(main())
