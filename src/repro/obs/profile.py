"""Span-integrated profiling: where the time and memory go *inside* a phase.

The span tracer answers "how long did ``solve`` take"; this module
answers the next question an operator asks — which functions burned that
time, and what did the phase allocate. Activated by ``--profile`` on the
CLI (``solve``/``run``/``batch``), it attaches to the tracer's
span hooks (:func:`repro.obs.trace.add_span_hook`) and:

* runs a :mod:`cProfile` profiler across each **outermost** profiled
  span (``solve``, ``lp_relaxation``, ...), aggregating per-function
  stats per span name — nested phase spans fold into their root phase,
  so the profiler is enabled/disabled exactly once per solve and never
  toggles inside the hot selection loop;
* snapshots :mod:`tracemalloc` at every profiled span boundary,
  aggregating allocation deltas and peaks per phase name;
* reports the process's **peak RSS** (``ru_maxrss``) at :func:`stop`
  time — the same number pool workers ship home in their result frames
  (see :mod:`repro.resilience.pool.worker`), so parent and worker memory
  stories use one unit.

Everything lands in the trace file as ``profile`` records (schema
``scwsc-trace/1``, validated by :mod:`repro.obs.schema`), and
:func:`collapsed_stacks` turns the span tree plus the profile samples
into collapsed-stack lines (the ``flamegraph.pl`` / speedscope input
format) via ``scwsc trace flamegraph``.

When no session is started the module costs nothing: no hook is
registered and the tracer's hook tuple stays empty.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from typing import Any

from repro.obs import trace as obs_trace

#: Span names worth a profiler/memory snapshot. Deliberately excludes
#: ``select`` and other per-iteration spans: toggling cProfile thousands
#: of times per solve would perturb exactly the numbers being measured.
PHASE_SPANS = frozenset(
    {"solve", "preprocess", "budget_round", "lp_relaxation"}
)

#: Per-scope cap on functions kept in a ``cprofile`` record.
DEFAULT_TOP_N = 25


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here so every consumer (profile records, pool result frames, the
    dashboard) sees bytes. ``None`` where :mod:`resource` is missing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(rss)
    return int(rss) * 1024


class ProfileSession:
    """One ``--profile`` activation: hooks, aggregates, and the report.

    Use through the module-level :func:`start` / :func:`stop` pair; the
    session itself is also usable directly in tests.
    """

    def __init__(self, top_n: int = DEFAULT_TOP_N):
        self.top_n = top_n
        self._depth = 0
        self._profiler: cProfile.Profile | None = None
        self._scope: str | None = None
        self._t0 = time.perf_counter()
        # scope -> func_label -> [ncalls, tottime, cumtime]
        self._cprofile: dict[str, dict[str, list[float]]] = {}
        # scope -> [samples, alloc_bytes, peak_bytes]
        self._memory: dict[str, list[float]] = {}
        self._mem_stack: list[tuple[str, int]] = []
        self._tracemalloc_started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        try:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started = True
        except Exception:  # pragma: no cover - tracemalloc disabled builds
            pass
        obs_trace.add_span_hook(self._hook)

    def _hook(self, phase: str, span: Any) -> None:
        if span.name not in PHASE_SPANS:
            return
        if phase == "enter":
            self._enter(span)
        else:
            self._exit(span)

    def _enter(self, span: Any) -> None:
        self._depth += 1
        try:
            import tracemalloc

            if tracemalloc.is_tracing():
                current, _ = tracemalloc.get_traced_memory()
                if self._depth == 1:
                    tracemalloc.reset_peak()
                self._mem_stack.append((span.name, current))
        except Exception:  # pragma: no cover
            pass
        if self._depth == 1 and self._profiler is None:
            profiler = cProfile.Profile()
            try:
                profiler.enable()
            except (ValueError, RuntimeError):
                # Another profiler (a debugger, pytest plugin) owns the
                # hook; degrade to memory-only profiling.
                return
            self._profiler = profiler
            self._scope = span.name

    def _exit(self, span: Any) -> None:
        self._depth = max(0, self._depth - 1)
        try:
            import tracemalloc

            if self._mem_stack and self._mem_stack[-1][0] == span.name:
                _, at_enter = self._mem_stack.pop()
                if tracemalloc.is_tracing():
                    current, peak = tracemalloc.get_traced_memory()
                    entry = self._memory.setdefault(
                        span.name, [0, 0.0, 0.0]
                    )
                    entry[0] += 1
                    entry[1] += max(0, current - at_enter)
                    if self._depth == 0:
                        entry[2] = max(entry[2], peak)
        except Exception:  # pragma: no cover
            pass
        if self._depth == 0 and self._profiler is not None:
            profiler, scope = self._profiler, self._scope or span.name
            self._profiler = None
            self._scope = None
            try:
                profiler.disable()
            except (ValueError, RuntimeError):  # pragma: no cover
                return
            self._aggregate(scope, profiler)

    def _aggregate(self, scope: str, profiler: cProfile.Profile) -> None:
        stats = pstats.Stats(profiler)
        bucket = self._cprofile.setdefault(scope, {})
        for (filename, lineno, funcname), entry in stats.stats.items():
            _, ncalls, tottime, cumtime, _ = entry
            short = filename.rsplit("/", 1)[-1]
            label = f"{short}:{lineno}:{funcname}"
            agg = bucket.get(label)
            if agg is None:
                bucket[label] = [ncalls, tottime, cumtime]
            else:
                agg[0] += ncalls
                agg[1] += tottime
                agg[2] += cumtime

    # ------------------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """The session's ``profile`` records (schema ``scwsc-trace/1``)."""
        t = round(time.perf_counter() - self._t0, 6)
        out: list[dict[str, Any]] = []
        for scope, functions in sorted(self._cprofile.items()):
            top = sorted(
                functions.items(), key=lambda item: -item[1][1]
            )[: self.top_n]
            out.append(
                {
                    "type": "profile",
                    "profile_kind": "cprofile",
                    "scope": scope,
                    "t": t,
                    "data": {
                        "functions": [
                            {
                                "func": label,
                                "ncalls": int(ncalls),
                                "tottime": round(tottime, 6),
                                "cumtime": round(cumtime, 6),
                            }
                            for label, (ncalls, tottime, cumtime) in top
                        ],
                        "n_functions": len(functions),
                    },
                }
            )
        for scope, (samples, alloc, peak) in sorted(self._memory.items()):
            out.append(
                {
                    "type": "profile",
                    "profile_kind": "memory",
                    "scope": scope,
                    "t": t,
                    "data": {
                        "samples": int(samples),
                        "alloc_bytes": int(alloc),
                        "peak_bytes": int(peak),
                    },
                }
            )
        rss = peak_rss_bytes()
        if rss is not None:
            out.append(
                {
                    "type": "profile",
                    "profile_kind": "rss",
                    "scope": "process",
                    "t": t,
                    "data": {"peak_rss_bytes": rss, "process": "parent"},
                }
            )
        return out

    def stop(self) -> list[dict[str, Any]]:
        """Detach hooks, stop tracemalloc, emit and return the records.

        Records are written into the configured tracer (if any) so a
        ``--profile --trace`` run produces one self-contained file.
        """
        obs_trace.remove_span_hook(self._hook)
        if self._profiler is not None:  # stop() mid-span: close it out
            try:
                self._profiler.disable()
            except (ValueError, RuntimeError):  # pragma: no cover
                pass
            self._aggregate(self._scope or "solve", self._profiler)
            self._profiler = None
        records = self.records()
        if self._tracemalloc_started:
            try:
                import tracemalloc

                tracemalloc.stop()
            except Exception:  # pragma: no cover
                pass
            self._tracemalloc_started = False
        tracer = obs_trace.get_tracer()
        if tracer is not None:
            for record in records:
                tracer.write_raw(record)
        return records


# ---------------------------------------------------------------------------
# Module-level session (the CLI path).
# ---------------------------------------------------------------------------

_SESSION: ProfileSession | None = None


def start(top_n: int = DEFAULT_TOP_N) -> ProfileSession:
    """Start the global profiling session (replacing any previous one)."""
    global _SESSION
    if _SESSION is not None:
        _SESSION.stop()
    _SESSION = ProfileSession(top_n=top_n)
    _SESSION.start()
    return _SESSION


def stop() -> list[dict[str, Any]]:
    """Stop the global session; returns (and traces) its records."""
    global _SESSION
    if _SESSION is None:
        return []
    session, _SESSION = _SESSION, None
    return session.stop()


def enabled() -> bool:
    return _SESSION is not None


# ---------------------------------------------------------------------------
# Collapsed-stack (flamegraph) export.
# ---------------------------------------------------------------------------


def collapsed_stacks(
    records: list[dict[str, Any]], include_cprofile: bool = True
) -> list[str]:
    """Render a trace's span tree as collapsed-stack lines.

    One line per unique root-to-span path, ``a;b;c <value>``, where the
    value is the span's **self time** in microseconds summed over every
    occurrence of that path — the exact input format of ``flamegraph.pl``
    and speedscope. With ``include_cprofile`` the per-function samples
    from ``profile`` records are appended under a ``cpu:<scope>`` root
    (kept apart from the wall-clock stacks: cProfile tottime and span
    self-time overlap but are not the same measure).
    """
    spans = {
        r["span_id"]: r
        for r in records
        if r.get("type") == "span" and r.get("span_id") is not None
    }
    child_durations: dict[Any, float] = {}
    for record in spans.values():
        parent = record.get("parent_id")
        if parent in spans:
            child_durations[parent] = child_durations.get(
                parent, 0.0
            ) + float(record.get("duration", 0.0))

    def path(record: dict[str, Any]) -> str:
        names = [record["name"]]
        seen = {record["span_id"]}
        parent = record.get("parent_id")
        while parent in spans and parent not in seen:
            seen.add(parent)
            names.append(spans[parent]["name"])
            parent = spans[parent].get("parent_id")
        return ";".join(reversed(names))

    totals: dict[str, int] = {}
    for span_id, record in spans.items():
        self_time = float(record.get("duration", 0.0)) - child_durations.get(
            span_id, 0.0
        )
        micros = int(round(max(0.0, self_time) * 1e6))
        if micros <= 0:
            continue
        key = path(record)
        totals[key] = totals.get(key, 0) + micros
    if include_cprofile:
        for record in records:
            if (
                record.get("type") != "profile"
                or record.get("profile_kind") != "cprofile"
            ):
                continue
            scope = record.get("scope", "profile")
            for entry in record.get("data", {}).get("functions", []):
                micros = int(round(float(entry.get("tottime", 0.0)) * 1e6))
                if micros <= 0:
                    continue
                key = f"cpu:{scope};{entry.get('func', '?')}"
                totals[key] = totals.get(key, 0) + micros
    return [f"{key} {value}" for key, value in sorted(totals.items())]


def profile_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The ``profile`` records of a loaded trace, in file order."""
    return [r for r in records if r.get("type") == "profile"]
