"""repro.obs — zero-dependency observability: tracing, metrics, reports.

The paper's evaluation is all about *where work goes* — sets considered,
marginal updates, budget rounds (Tables 4-6, Figs. 5-9) — and the
resilience pool adds a second axis: *what happened to each request*.
This package makes both first-class instead of debug logging:

* :mod:`repro.obs.trace` — nested monotonic-clock spans with attributes
  from one tracer per process that writes every record to its sinks
  (JSONL file, in-memory capture, flight recorder, access log,
  postmortem triggers), threaded through every solver,
  both marginal-tracker backends, and the process pool. Disabled by
  default and near-free when off: ``span()`` returns a shared no-op
  and hot paths guard attribute dicts behind a single ``enabled()``
  check. Also home to the W3C-style request
  :class:`~repro.obs.trace.TraceContext` (``traceparent``
  mint/parse/propagate) that stitches server and worker spans into
  one request tree.
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with a
  Prometheus-style text exposition and a JSON snapshot; the solver
  :class:`~repro.core.result.Metrics` counters publish into it through
  one shared field schema.
* :mod:`repro.obs.schema` — the trace record schema (``access``
  records included) and the validator behind ``scwsc trace validate``.
* :mod:`repro.obs.report` — per-phase time/count/self-time rollups, the
  renderer behind ``scwsc trace summarize``, and the span-tree
  collapsed-stack export behind ``scwsc trace flamegraph``.
* :mod:`repro.obs.quality` — solution-quality telemetry (approximation
  ratio vs. the LP lower bound, coverage slack, sets-vs-budget),
  published on every recorded solve.
* :mod:`repro.obs.dashboard` — the single-file static HTML run report
  behind ``scwsc report TRACE -o report.html``.
* :mod:`repro.obs.log` — the package logger (``logging.getLogger
  ("repro")`` with a ``NullHandler``) and console-handler setup for the
  CLI and pool workers.
* :mod:`repro.obs.flightrec` — the always-on flight recorder: bounded
  ring buffers for spans/events/access/metrics/quality, a passive sink of the
  tracer that leaves ``enabled()`` False, so the hot-path guards stay
  cold.
* :mod:`repro.obs.stacks` — ``sys._current_frames`` stack sampling (one
  shot or a short burst) with a collapsed-stack rollup.
* :mod:`repro.obs.postmortem` — ``scwsc-postmortem/1`` bundles: build /
  validate / redact, the bounded on-disk :class:`~repro.obs.postmortem.
  BundleSpool`, and the rate-limited :class:`~repro.obs.postmortem.
  TriggerEngine`, a tracer sink the serve daemon arms.

See docs/OBSERVABILITY.md for the record schema and overhead numbers.
"""

from repro.obs.dashboard import render_dashboard
from repro.obs.flightrec import (
    FlightRecorder,
    RingBuffer,
    get_recorder,
    install,
    uninstall,
)
from repro.obs.log import console_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    record_cover_result,
)
from repro.obs.postmortem import (
    POSTMORTEM_SCHEMA,
    BundleSpool,
    TriggerEngine,
    build_bundle,
    redact_bundle,
    validate_bundle,
    validate_bundle_file,
)
from repro.obs.quality import compute_quality, quality_records, record_quality
from repro.obs.stacks import collapse_samples, sample_once
from repro.obs.trace import (
    NULL_SPAN,
    TraceContext,
    Tracer,
    capture,
    configure,
    enabled,
    event,
    get_context,
    get_tracer,
    parse_traceparent,
    recording,
    replay,
    shutdown,
    span,
)

__all__ = [
    "BundleSpool",
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "POSTMORTEM_SCHEMA",
    "RingBuffer",
    "TraceContext",
    "Tracer",
    "TriggerEngine",
    "build_bundle",
    "capture",
    "collapse_samples",
    "compute_quality",
    "configure",
    "console_logging",
    "enabled",
    "event",
    "get_context",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "install",
    "parse_traceparent",
    "quality_records",
    "record_cover_result",
    "record_quality",
    "recording",
    "redact_bundle",
    "render_dashboard",
    "replay",
    "sample_once",
    "shutdown",
    "span",
    "uninstall",
    "validate_bundle",
    "validate_bundle_file",
]
