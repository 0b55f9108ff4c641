"""Flight recorder: always-on bounded ring buffers for the serve daemon.

The trace file answers "what happened" *if you asked in advance*; the
``/metrics`` page answers "what is happening now". Neither helps when a
worker dies at 3am and the evidence is already gone. The flight recorder
is the black box in between: four lock-cheap ring buffers that
continuously retain the most recent

* **spans** — completed server/pool spans (``scwsc-trace/1`` records),
* **events** — pool lifecycle, breaker transitions, chaos injections,
* **access** — per-request access-log records (``scwsc-access/1``),
* **metrics** — periodic registry snapshots from a background poller,

plus the last ring shipped home by each pool worker (see
``repro.resilience.pool.worker``). Everything is bounded: a ring never
grows, never blocks, and overwrites its oldest entry when full, counting
what it dropped.

Wiring: :func:`install` registers a :class:`FlightRecorder` as the
module singleton *and* attaches its :meth:`~FlightRecorder.write` as a
passive sink of the process's one tracer
(:func:`repro.obs.trace.add_sink`). Every record the tracer writes —
with ``--trace`` the same stream the file gets, without it the coarse
call sites (``trace.span``/``trace.event``) — lands in the rings. A pool
worker attaches a plain :class:`RingBuffer` the same way.

Crucially :func:`repro.obs.trace.enabled` stays False when only rings
are attached, so the per-selection tracker hot loops are byte-identical
with the recorder on or off — that is the whole <2% overhead budget
story (enforced by ``tests/obs/test_flightrec_overhead.py``).

The recorder is a passive store; the trigger engine that turns its
contents into on-disk postmortem bundles lives in
:mod:`repro.obs.postmortem`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = [
    "RingBuffer",
    "FlightRecorder",
    "install",
    "uninstall",
    "get_recorder",
]


class RingBuffer:
    """A bounded, thread-safe record ring: O(1) append, oldest-evicted.

    The lock is held only for the deque append and two integer bumps —
    cheap enough for the request path. ``snapshot()`` copies under the
    lock so readers never see a torn ring.
    """

    __slots__ = ("capacity", "_records", "_lock", "_total")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque[Any] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._total = 0

    def append(self, record: Any) -> None:
        with self._lock:
            self._records.append(record)
            self._total += 1

    def snapshot(self) -> list[Any]:
        with self._lock:
            return list(self._records)

    def stats(self) -> dict[str, int]:
        with self._lock:
            kept = len(self._records)
            return {
                "capacity": self.capacity,
                "total": self._total,
                "dropped": self._total - kept,
                "kept": kept,
            }

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class FlightRecorder:
    """The in-process black box: typed rings plus a metrics poller.

    Doubles as a trace sink (``write(record)``) attached to the tracer
    of :mod:`repro.obs.trace`; records are routed by their ``type``
    field. An optional ``on_event`` callback
    (the postmortem trigger engine) observes every event record; it runs
    on the emitting thread and is exception-isolated so a broken trigger
    can never take down a solve.
    """

    def __init__(
        self,
        *,
        span_capacity: int = 1024,
        event_capacity: int = 1024,
        access_capacity: int = 256,
        metrics_capacity: int = 16,
    ) -> None:
        self.spans = RingBuffer(span_capacity)
        self.events = RingBuffer(event_capacity)
        self.access = RingBuffer(access_capacity)
        self.metrics = RingBuffer(metrics_capacity)
        self.started_unix = time.time()
        #: worker index -> last ring the worker shipped in a result frame
        self._worker_rings: dict[int, list[dict[str, Any]]] = {}
        self._worker_lock = threading.Lock()
        self.on_event: Callable[[dict[str, Any]], None] | None = None
        self._poll_thread: threading.Thread | None = None
        self._poll_stop = threading.Event()
        self.on_poll: Callable[[], None] | None = None

    # -- trace sink interface ------------------------------------------

    def write(self, record: dict[str, Any]) -> None:
        kind = record.get("type")
        if kind == "span":
            self.spans.append(record)
            return
        if kind == "metrics":
            self.metrics.append(record)
            return
        # events, plus anything unrecognized (meta, profile, quality):
        # better in the wrong ring than silently gone.
        self.events.append(record)
        if kind == "event":
            callback = self.on_event
            if callback is not None:
                try:
                    callback(record)
                except Exception:  # noqa: BLE001 - triggers must not break solves
                    pass

    # -- non-trace feeds -----------------------------------------------

    def record_access(self, record: dict[str, Any]) -> None:
        """Ring one access-log record (``scwsc-access/1`` shape)."""
        self.access.append(record)

    def record_metrics(self, snapshot: dict[str, Any]) -> None:
        """Ring one metrics snapshot (stamped with wall time)."""
        self.metrics.append(
            {"type": "metrics", "ts": round(time.time(), 3), "metrics": snapshot}
        )

    def note_worker_ring(self, index: int, records: list[dict[str, Any]]) -> None:
        """Retain the ring a pool worker shipped in its latest result
        frame — the worker's last words if it is killed before the next."""
        with self._worker_lock:
            self._worker_rings[index] = records

    def worker_rings(self) -> dict[int, list[dict[str, Any]]]:
        with self._worker_lock:
            return {index: list(ring) for index, ring in self._worker_rings.items()}

    # -- periodic metrics poll -----------------------------------------

    def start_metrics_poll(
        self,
        snapshot_fn: Callable[[], dict[str, Any]],
        interval: float = 10.0,
    ) -> None:
        """Start a daemon thread ringing ``snapshot_fn()`` every
        ``interval`` seconds; also fires ``on_poll`` (the trigger
        engine's SLO fast-burn check) each tick."""
        if self._poll_thread is not None:
            return
        self._poll_stop.clear()
        # Ring one snapshot right away so a bundle built before the
        # first tick still carries a metrics baseline.
        try:
            self.record_metrics(snapshot_fn())
        except Exception:  # noqa: BLE001
            pass

        def _loop() -> None:
            while not self._poll_stop.wait(interval):
                try:
                    self.record_metrics(snapshot_fn())
                except Exception:  # noqa: BLE001 - keep polling
                    pass
                callback = self.on_poll
                if callback is not None:
                    try:
                        callback()
                    except Exception:  # noqa: BLE001
                        pass

        self._poll_thread = threading.Thread(
            target=_loop, name="scwsc-flightrec-poll", daemon=True
        )
        self._poll_thread.start()

    def stop_metrics_poll(self) -> None:
        thread = self._poll_thread
        if thread is None:
            return
        self._poll_stop.set()
        thread.join(timeout=5.0)
        self._poll_thread = None

    # -- introspection --------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Ring occupancy counters — the ``/debug/flightrec`` body."""
        with self._worker_lock:
            workers = {
                str(index): len(ring)
                for index, ring in sorted(self._worker_rings.items())
            }
        return {
            "started_unix": round(self.started_unix, 3),
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "rings": {
                "spans": self.spans.stats(),
                "events": self.events.stats(),
                "access": self.access.stats(),
                "metrics": self.metrics.stats(),
            },
            "worker_ring_records": workers,
        }

    def snapshot(self) -> dict[str, Any]:
        """Full ring contents — the bulk of a postmortem bundle."""

        def _ring(ring: RingBuffer) -> dict[str, Any]:
            stats = ring.stats()
            return {
                "capacity": stats["capacity"],
                "total": stats["total"],
                "dropped": stats["dropped"],
                "records": ring.snapshot(),
            }

        return {
            "spans": _ring(self.spans),
            "events": _ring(self.events),
            "access": _ring(self.access),
            "metrics": _ring(self.metrics),
        }


# ---------------------------------------------------------------------------
# Module singleton: one recorder per process, a sink of the one tracer.
# ---------------------------------------------------------------------------

_RECORDER: FlightRecorder | None = None


def install(recorder: FlightRecorder | None = None, **capacities: int) -> FlightRecorder:
    """Install ``recorder`` (or a fresh one) as the process-wide flight
    recorder and attach it as a passive sink of the tracer (replacing
    a previously installed recorder)."""
    from repro.obs import trace as obs_trace

    global _RECORDER
    if recorder is None:
        recorder = FlightRecorder(**capacities)
    if _RECORDER is not None:
        obs_trace.remove_sink(_RECORDER.write)
    _RECORDER = recorder
    obs_trace.add_sink(recorder.write)
    return recorder


def uninstall() -> None:
    """Detach the recorder from the tracer and drop the singleton
    (stopping its metrics poller if running)."""
    from repro.obs import trace as obs_trace

    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.stop_metrics_poll()
        obs_trace.remove_sink(_RECORDER.write)
    _RECORDER = None


def get_recorder() -> FlightRecorder | None:
    return _RECORDER
