"""Span tracer: one tracer per process, writing each record to its sinks.

Design constraints, in order:

1. **Near-free when disabled.** ``enabled()`` is a single global read,
   true only while a JSONL file (:func:`configure`) or an in-memory
   capture (:func:`capture`) is attached. Hot loops (per-selection,
   per-update) must pre-fetch ``traced = trace.enabled()`` once and
   only build attribute dicts when it is true — the instrumented call
   sites follow the pattern::

       traced = trace.enabled()
       ...
       with trace.span("select", pick=i) if traced else trace.NULL_SPAN:
           ...

   Passive sinks — the flight recorder (:func:`repro.obs.flightrec.
   install`) and each pool worker's ring — see every record written
   while ``enabled()`` stays False, so the hot loops run the same code
   with or without them. Coarse call sites (one span per HTTP request,
   pool lifecycle events) write whenever :func:`recording` is true;
   with no sink attached at all, ``span(...)`` returns the shared
   :data:`NULL_SPAN` whose ``__enter__``/``__exit__`` do nothing.

2. **Correct nesting without threading a context object.** The current
   span is a :mod:`contextvars` ContextVar, so spans nest correctly
   across threads and the pool's single-threaded select loop alike, and
   solver code never needs a ``trace=`` parameter.

3. **One span-id scheme.** Every span id is a fresh 64-bit W3C id
   (:func:`new_span_id`) in every process, so a pool worker's captured
   records replay into the parent's file unchanged (see :func:`replay`)
   and the HTTP edge span's id is its ``traceparent`` span id.

4. **One line per record, flushed.** The file sink is JSONL so a killed
   worker or a Ctrl-C leaves a readable prefix; the supervisor replays
   worker-captured records into the same file instead of letting two
   processes interleave writes.

Record shapes (schema ``scwsc-trace/1``, validated by
:mod:`repro.obs.schema`):

* ``{"type": "meta", "schema": "scwsc-trace/1", "wall_time_unix": ...,
  "t": ..., "attrs": {...}}`` — first record of a file, written by
  :func:`configure`.
* ``{"type": "span", "name", "span_id", "parent_id", "t_start",
  "t_end", "duration", "attrs"}`` — written when the span closes, so
  records appear in *completion* order; ``parent_id`` reconstructs the
  tree.
* ``{"type": "event", "name", "t", "attrs"}`` — a point-in-time fact
  (pool lifecycle, breaker transition, tracker update).
* ``{"type": "metrics", "t", "metrics": {...}}`` — a registry snapshot,
  usually written once at shutdown.
* ``{"type": "profile", "t", "profile_kind", "scope", "data": {...}}`` —
  a profiling sample (cProfile aggregate, tracemalloc snapshot, or
  peak-RSS report), written by :mod:`repro.obs.profile`.
* ``{"type": "quality", "t", "algorithm", "quality": {...}}`` — one
  solve's solution-quality telemetry (approximation ratio vs. the LP
  bound, coverage slack, sets used vs. ``k``), written by
  :mod:`repro.obs.quality`.

All ``t`` values are seconds since the process's tracer was created,
on the monotonic clock (``time.perf_counter``); the meta record pairs
its ``t`` with ``wall_time_unix`` to anchor them to wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import secrets
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Iterator

SCHEMA = "scwsc-trace/1"

_current_span_id: ContextVar[str | None] = ContextVar(
    "repro_obs_current_span", default=None
)


# ---------------------------------------------------------------------------
# W3C-style trace context: the cross-process identity of one request.
# ---------------------------------------------------------------------------

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh 32-hex-char (128-bit) trace id."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 16-hex-char (64-bit) span id."""
    return secrets.token_hex(8)


class TraceContext:
    """Request-scoped identity carried across process boundaries.

    Mirrors the W3C ``traceparent`` triple: a 128-bit ``trace_id``
    naming the whole request, a 64-bit ``span_id`` naming the caller's
    span, and a flags byte (``01`` = sampled). Carried with each pool
    request so worker-side spans replay under the originating request's
    trace id and span.
    """

    __slots__ = ("trace_id", "span_id", "flags")

    def __init__(self, trace_id: str, span_id: str, flags: str = "01"):
        self.trace_id = trace_id
        self.span_id = span_id
        self.flags = flags

    @classmethod
    def mint(cls) -> "TraceContext":
        return cls(new_trace_id(), new_span_id())

    def child(self) -> "TraceContext":
        """Same trace, fresh caller span id — for outbound hops."""
        return TraceContext(self.trace_id, new_span_id(), self.flags)

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{self.flags}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.to_traceparent()!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.flags == other.flags
        )


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a W3C ``traceparent`` header; None when absent or invalid.

    Invalid headers are dropped (the edge mints a fresh context) rather
    than rejected — a malformed upstream header must never fail a solve.
    An all-zero trace or span id is invalid per the spec.
    """
    if not header:
        return None
    m = _TRACEPARENT_RE.match(header.strip().lower())
    if m is None:
        return None
    version, trace_id, span_id, flags = m.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id, flags)


_current_context: ContextVar[TraceContext | None] = ContextVar(
    "repro_obs_trace_context", default=None
)


def get_context() -> TraceContext | None:
    """The trace context bound to the current thread/task, if any."""
    return _current_context.get()


def set_context(ctx: TraceContext | None) -> Any:
    """Bind ``ctx`` as the current trace context; returns a reset token."""
    return _current_context.set(ctx)


def reset_context(token: Any) -> None:
    """Undo a :func:`set_context` using its returned token."""
    _current_context.reset(token)


@contextlib.contextmanager
def context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Scope ``ctx`` as the current trace context for a ``with`` block."""
    token = _current_context.set(ctx)
    try:
        yield ctx
    finally:
        _current_context.reset(token)

#: Observers notified on every real span open/close — the profiling layer
#: (:mod:`repro.obs.profile`) attaches here. Empty by default, so the
#: per-span cost of the feature is one global load and a truth test, and
#: the disabled-tracing path (NULL_SPAN) never touches it at all.
_SPAN_HOOKS: tuple = ()


def add_span_hook(hook) -> None:
    """Register ``hook(phase, span)`` to observe span lifecycles.

    ``phase`` is ``"enter"`` or ``"exit"``; ``span`` is the live
    :class:`Span`. Hooks run inline on the traced thread — keep them
    cheap and never let them raise.
    """
    global _SPAN_HOOKS
    if hook not in _SPAN_HOOKS:
        _SPAN_HOOKS = _SPAN_HOOKS + (hook,)


def remove_span_hook(hook) -> None:
    global _SPAN_HOOKS
    _SPAN_HOOKS = tuple(h for h in _SPAN_HOOKS if h is not hook)


class JsonlSink:
    """Writes one JSON object per line to a file or stream, flushing each.

    Flushing per record costs a syscall but means a SIGKILL'd process
    (the pool does that on purpose) leaves a valid, parseable prefix.
    The lock keeps lines from two threads whole.
    """

    def __init__(self, target: str | io.TextIOBase):
        if isinstance(target, str):
            self._fh: Any = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._lock = threading.Lock()

    def write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._owns:
            self._fh.close()


class Span:
    """A live span. Use via ``with trace.span(...)``.

    ``enabled`` is a class attribute so call sites can guard attribute
    computation with ``if sp.enabled:`` and the guard costs one
    attribute load for both real and null spans.
    """

    enabled = True

    __slots__ = ("_tracer", "name", "span_id", "attrs", "_t_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = new_span_id()
        self.attrs = attrs
        self._t_start = 0.0
        self._token: Any = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the span has started."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an event parented (by time, not id) inside this span."""
        self._tracer.event(name, **attrs)

    def __enter__(self) -> "Span":
        parent = _current_span_id.get()
        self.attrs.setdefault("_parent", parent)
        self._t_start = self._tracer.now()
        self._token = _current_span_id.set(self.span_id)
        if _SPAN_HOOKS:
            for hook in _SPAN_HOOKS:
                hook("enter", self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        t_end = self._tracer.now()
        _current_span_id.reset(self._token)
        if _SPAN_HOOKS:
            for hook in _SPAN_HOOKS:
                hook("exit", self)
        attrs = self.attrs
        parent = attrs.pop("_parent", None)
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        self._tracer._write(
            {
                "type": "span",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": parent,
                "t_start": round(self._t_start, 6),
                "t_end": round(t_end, 6),
                "duration": round(t_end - self._t_start, 6),
                "attrs": attrs,
            }
        )


class _NullSpan:
    """Shared no-op span returned whenever no sink is attached."""

    enabled = False

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


NULL_SPAN = _NullSpan()

#: A sink: any callable taking one record dict.
Sink = Callable[[dict[str, Any]], None]


class Tracer:
    """The process's one tracer: a monotonic epoch and the attached sinks.

    ``sinks`` is replaced whole (under the module lock) whenever a sink
    is attached or detached, so a write iterates a snapshot and takes
    no lock of its own.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.sinks: tuple[Sink, ...] = ()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def _write(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink(record)

    def event(self, name: str, **attrs: Any) -> None:
        self._write(
            {
                "type": "event",
                "name": name,
                "t": round(self.now(), 6),
                "attrs": attrs,
            }
        )

    def write_metrics(self, snapshot: dict[str, Any]) -> None:
        self._write(
            {
                "type": "metrics",
                "t": round(self.now(), 6),
                "metrics": snapshot,
            }
        )

    def write_raw(self, record: dict[str, Any]) -> None:
        """Write a pre-built record verbatim (used by :func:`replay`)."""
        self._write(record)


# ---------------------------------------------------------------------------
# Module-level tracer: the fast path all instrumentation goes through.
# ---------------------------------------------------------------------------

_TRACER = Tracer()
_LOCK = threading.Lock()
#: Attached sinks that switch the hot-loop instrumentation on: the JSONL
#: file and open captures.
_ACTIVE: tuple[Sink, ...] = ()
#: Attached passive sinks (rings): they see every record while
#: :func:`enabled` stays False.
_PASSIVE: tuple[Sink, ...] = ()
_ENABLED = False
_FILE: JsonlSink | None = None


def _swap(active: tuple[Sink, ...], passive: tuple[Sink, ...]) -> None:
    """Install new sink tuples; the caller holds ``_LOCK``."""
    global _ACTIVE, _PASSIVE, _ENABLED
    _ACTIVE, _PASSIVE = active, passive
    _TRACER.sinks = active + passive
    _ENABLED = bool(active)


def add_sink(sink: Sink) -> None:
    """Attach a passive sink, such as a ring buffer's ``append``: it
    sees every record written, and :func:`enabled` stays False."""
    with _LOCK:
        if sink not in _PASSIVE:
            _swap(_ACTIVE, _PASSIVE + (sink,))


def remove_sink(sink: Sink) -> None:
    """Detach ``sink`` (the sink itself is not closed)."""
    with _LOCK:
        _swap(
            tuple(s for s in _ACTIVE if s != sink),
            tuple(s for s in _PASSIVE if s != sink),
        )


def recording() -> bool:
    """True while *any* sink — file, capture or ring — is attached.
    Coarse call sites (per-dispatch events, RSS samples) guard on this;
    per-iteration hot loops keep guarding on :func:`enabled`."""
    return bool(_TRACER.sinks)


def configure(
    target: str | io.TextIOBase, **meta_attrs: Any
) -> Tracer:
    """Attach a JSONL file sink writing to ``target``.

    Replaces (and closes) any previously configured file. ``meta_attrs``
    land in the file's leading meta record (command line, dataset,
    config, ...).
    """
    global _FILE
    sink = JsonlSink(target)
    sink.write(
        {
            "type": "meta",
            "schema": SCHEMA,
            "wall_time_unix": round(time.time(), 3),
            "t": round(_TRACER.now(), 6),
            "attrs": meta_attrs,
        }
    )
    with _LOCK:
        previous, _FILE = _FILE, sink
        active = _ACTIVE
        if previous is not None:
            active = tuple(s for s in active if s != previous.write)
        _swap(active + (sink.write,), _PASSIVE)
    if previous is not None:
        previous.close()
    return _TRACER


def shutdown(metrics_snapshot: dict[str, Any] | None = None) -> None:
    """Flush, detach and close the configured file sink.

    When ``metrics_snapshot`` is given it is written as the final
    ``metrics`` record so a trace file is self-contained.
    """
    global _FILE
    with _LOCK:
        sink, _FILE = _FILE, None
    if sink is None:
        return
    if metrics_snapshot is not None:
        _TRACER.write_metrics(metrics_snapshot)
    remove_sink(sink.write)
    sink.close()


def enabled() -> bool:
    """True while a file or capture sink is attached. One global read —
    hot loops fetch this once per solve/round, not per iteration."""
    return _ENABLED


def get_tracer() -> Tracer | None:
    """The tracer while :func:`enabled`, else None."""
    return _TRACER if _ENABLED else None


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open a span on the tracer, or return :data:`NULL_SPAN` when no
    sink is attached.

    Note the kwargs dict is built by the *caller* before we can check —
    per-iteration call sites must guard with ``if traced:`` themselves
    (see module docstring)."""
    if not _TRACER.sinks:
        return NULL_SPAN
    return Span(_TRACER, name, attrs)


def event(name: str, **attrs: Any) -> None:
    if _TRACER.sinks:
        _TRACER.event(name, **attrs)


def write_raw(record: dict[str, Any]) -> None:
    _TRACER.write_raw(record)


def replay(
    records: list[dict[str, Any]],
    *,
    root_parent: str | None = None,
    **attrs: Any,
) -> None:
    """Re-emit records captured in another process (a pool worker's
    :func:`capture`) through this process's sinks, while :func:`enabled`.

    Span ids are random 64-bit ids in every process, so they replay
    unchanged. ``root_parent`` re-parents the capture's root spans
    (``parent_id`` None) under an existing span id, stitching the
    worker subtree onto the request's edge span so the whole request is
    one tree; ``attrs`` are merged into every record's ``attrs`` so a
    pool run's records carry ``trace_id``/``request_id``/``worker``/
    ``attempt`` without the worker knowing them.
    """
    if not _ENABLED:
        return
    for record in records:
        if record.get("type") == "meta":
            continue  # the outer trace already has its meta record
        rec = dict(record)
        if (
            root_parent is not None
            and "span_id" in rec
            and rec.get("parent_id") is None
        ):
            rec["parent_id"] = root_parent
        if attrs:
            rec["attrs"] = {**(rec.get("attrs") or {}), **attrs}
        _TRACER.write_raw(rec)


@contextlib.contextmanager
def capture() -> Iterator[list[dict[str, Any]]]:
    """Attach an in-memory sink for the ``with`` block; yield its records.

    The capture turns :func:`enabled` on and sits beside the other
    sinks: a file or ring attached meanwhile keeps receiving every
    record. Used by pool workers (records ship home in the result
    frame) and by the bench harness (records roll up into per-phase
    timings).
    """
    records: list[dict[str, Any]] = []
    with _LOCK:
        _swap(_ACTIVE + (records.append,), _PASSIVE)
    try:
        yield records
    finally:
        remove_sink(records.append)
