"""Span tracer: nested monotonic-clock spans with a JSONL sink.

Design constraints, in order:

1. **Near-free when disabled.** The default state is "no tracer
   configured". ``enabled()`` is a single global read; ``span(...)``
   returns the shared :data:`NULL_SPAN` whose ``__enter__``/``__exit__``
   do nothing. Hot loops (per-selection, per-update) must pre-fetch
   ``traced = trace.enabled()`` once and only build attribute dicts when
   it is true — the instrumented call sites follow the pattern::

       traced = trace.enabled()
       ...
       with trace.span("select", pick=i) if traced else trace.NULL_SPAN:
           ...

2. **Correct nesting without threading a context object.** The current
   span is a :mod:`contextvars` ContextVar, so spans nest correctly
   across threads and the pool's single-threaded select loop alike, and
   solver code never needs a ``trace=`` parameter.

3. **One line per record, flushed.** The sink is JSONL so a killed
   worker or a Ctrl-C leaves a readable prefix; the supervisor replays
   worker-captured records into the same file (see :func:`replay`)
   instead of letting two processes interleave writes.

Record shapes (schema ``scwsc-trace/1``, validated by
:mod:`repro.obs.schema`):

* ``{"type": "meta", "schema": "scwsc-trace/1", "wall_time_unix": ...,
  "t": 0.0, "attrs": {...}}`` — first record, written by
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

All ``t`` values are seconds relative to the tracer's start on the
monotonic clock (``time.perf_counter``); ``wall_time_unix`` in the meta
record anchors them to wall time.
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
from typing import Any, Iterator

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
    trace id instead of a synthetic per-request counter.
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


class MemorySink:
    """Collects records in a list — used by workers and the bench harness
    to capture a run's trace for shipping/rollup without touching disk."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def write(self, record: dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def close(self) -> None:  # pragma: no cover - symmetry with JsonlSink
        pass


class Span:
    """A live span. Use via ``with tracer.span(...)`` / ``trace.span(...)``.

    ``enabled`` is a class attribute so call sites can guard attribute
    computation with ``if sp.enabled:`` and the guard costs one
    attribute load for both real and null spans.
    """

    enabled = True

    __slots__ = ("_tracer", "name", "span_id", "attrs", "_t_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
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
    """Shared no-op span returned whenever tracing is disabled."""

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


class Tracer:
    """Owns a sink, a monotonic epoch, and the span id counter."""

    def __init__(
        self,
        sink: JsonlSink | MemorySink,
        *,
        id_prefix: str = "s",
        write_meta: bool = True,
        meta_attrs: dict[str, Any] | None = None,
    ):
        self._sink = sink
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._counter = 0
        self._id_prefix = id_prefix
        if write_meta:
            self._write(
                {
                    "type": "meta",
                    "schema": SCHEMA,
                    "wall_time_unix": round(time.time(), 3),
                    "t": 0.0,
                    "attrs": meta_attrs or {},
                }
            )

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self._id_prefix}{self._counter}"

    def _write(self, record: dict[str, Any]) -> None:
        self._sink.write(record)
        ring = _RING_TRACER
        if ring is not None and ring is not self:
            ring._sink.write(record)

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

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

    def close(self) -> None:
        self._sink.close()


# ---------------------------------------------------------------------------
# Module-level tracer: the fast path all instrumentation goes through.
# ---------------------------------------------------------------------------

_TRACER: Tracer | None = None

#: Secondary always-on channel for the flight recorder. Deliberately NOT
#: consulted by :func:`enabled` — hot loops guarded by ``enabled()`` must
#: stay byte-identical whether or not a ring is armed, which is what
#: keeps the recorder inside its <2% overhead budget. Coarse call sites
#: (one span per HTTP request, pool lifecycle events) flow into the ring
#: through the fallbacks in :func:`span`/:func:`event`/:func:`write_raw`,
#: and every record written through a full tracer is teed into the ring
#: so ``--trace`` runs and ring-only runs see the same stream.
_RING_TRACER: Tracer | None = None


def set_ring(sink: Any) -> Tracer:
    """Install ``sink`` (anything with ``write(record)``) as the ring
    channel. Returns the internal tracer so callers can mint span ids."""
    global _RING_TRACER
    _RING_TRACER = Tracer(sink, id_prefix="fr", write_meta=False)
    return _RING_TRACER


def clear_ring() -> None:
    """Uninstall the ring channel (the sink itself is not closed —
    ring buffers have no resources to release)."""
    global _RING_TRACER
    _RING_TRACER = None


def ring_active() -> bool:
    """True when a flight-recorder ring sink is installed."""
    return _RING_TRACER is not None


def recording() -> bool:
    """True when *any* channel — full tracer or ring — will observe
    records. Coarse call sites (per-dispatch events, RSS samples) guard
    on this; per-iteration hot loops keep guarding on :func:`enabled`."""
    return _TRACER is not None or _RING_TRACER is not None


def configure(
    target: str | io.TextIOBase, **meta_attrs: Any
) -> Tracer:
    """Install a global tracer writing JSONL to ``target``.

    Replaces (and closes) any previously configured tracer. ``meta_attrs``
    land in the leading meta record (command line, dataset, config, ...).
    """
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(JsonlSink(target), meta_attrs=meta_attrs)
    return _TRACER


def shutdown(metrics_snapshot: dict[str, Any] | None = None) -> None:
    """Flush and uninstall the global tracer.

    When ``metrics_snapshot`` is given it is written as the final
    ``metrics`` record so a trace file is self-contained.
    """
    global _TRACER
    if _TRACER is None:
        return
    if metrics_snapshot is not None:
        _TRACER.write_metrics(metrics_snapshot)
    _TRACER.close()
    _TRACER = None


def enabled() -> bool:
    """True when a global tracer is installed. One global read — hot
    loops fetch this once per solve/round, not per iteration."""
    return _TRACER is not None


def get_tracer() -> Tracer | None:
    return _TRACER


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open a span on the global tracer, or return :data:`NULL_SPAN`.

    Note the kwargs dict is built by the *caller* before we can check
    ``enabled()`` — per-iteration call sites must guard with
    ``if traced:`` themselves (see module docstring)."""
    tracer = _TRACER
    if tracer is None:
        tracer = _RING_TRACER
        if tracer is None:
            return NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    tracer = _TRACER or _RING_TRACER
    if tracer is not None:
        tracer.event(name, **attrs)


def write_raw(record: dict[str, Any]) -> None:
    tracer = _TRACER or _RING_TRACER
    if tracer is not None:
        tracer.write_raw(record)


def replay(
    records: list[dict[str, Any]],
    *,
    prefix: str = "",
    root_parent: str | None = None,
    **attrs: Any,
) -> None:
    """Re-emit captured records (from a worker or a :func:`capture`)
    into the global tracer.

    ``prefix`` namespaces span ids so records from different workers
    cannot collide (the supervisor uses the request's trace id when one
    exists, else ``r<request_id>a<attempt>.``); ``root_parent``
    re-parents the capture's root spans (``parent_id`` None) under an
    existing span id, stitching the worker subtree onto the request's
    edge span so the whole request is one tree; ``attrs`` are merged
    into every record's ``attrs`` so a pool run's spans carry
    ``request_id``/``worker`` without the worker knowing either.
    """
    tracer = _TRACER
    if tracer is None:
        return
    for record in records:
        rec = dict(record)
        if rec.get("type") == "meta":
            continue  # the outer trace already has its meta record
        if "span_id" in rec:
            if prefix and rec["span_id"] is not None:
                rec["span_id"] = f"{prefix}{rec['span_id']}"
            if rec.get("parent_id") is not None:
                if prefix:
                    rec["parent_id"] = f"{prefix}{rec['parent_id']}"
            elif root_parent is not None:
                rec["parent_id"] = root_parent
        if attrs:
            merged = dict(rec.get("attrs") or {})
            merged.update(attrs)
            rec["attrs"] = merged
        tracer.write_raw(rec)


@contextlib.contextmanager
def capture() -> Iterator[list[dict[str, Any]]]:
    """Temporarily install a memory-sink tracer and yield its records.

    Used by pool workers (records ship home in the result frame) and by
    the bench harness (records roll up into per-phase timings). The
    previous tracer, if any, is restored on exit.
    """
    global _TRACER
    previous = _TRACER
    sink = MemorySink()
    _TRACER = Tracer(sink, write_meta=False)
    try:
        yield sink.records
    finally:
        _TRACER = previous
