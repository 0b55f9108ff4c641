"""Tuning for the ``scwsc serve`` daemon (:mod:`repro.serve`).

One dataclass so the CLI, the tests, and the smoke harness configure a
server the same way. Validation happens at construction: a daemon that
would boot with a nonsensical admission policy should fail before it
binds a port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs for one :class:`~repro.serve.server.SolverServer`.

    Admission control:

    ``max_inflight``
        Ceiling on requests admitted but not yet answered (executing in
        a worker *or* queued inside the pool) — the "admission cap".
        Hitting it sheds with 429 + ``Retry-After``.
    ``max_queue_depth``
        Independent ceiling on the pool's internal dispatch queue, so a
        burst of slow requests cannot build unbounded latency even when
        ``max_inflight`` would admit them.

    Deadlines:

    ``default_deadline`` / ``max_deadline``
        Per-request end-to-end budgets in seconds: requests may ask for
        their own ``deadline`` up to ``max_deadline``; omitting it gets
        ``default_deadline``. Budgets are enforced absolutely by the
        pool (queue wait and requeues included) with the SIGKILL
        hard-timeout path behind them; a spent budget degrades to the
        verified universal fallback instead of overrunning.
    ``grace``
        SIGKILL slack past the deadline, and therefore the tolerance on
        end-to-end latency.

    Robustness:

    ``read_timeout``
        Socket timeout for reading a request (line, headers, body); a
        slow-loris client is dropped, not waited on.
    ``max_body_bytes``
        Reject larger request bodies with 413 before reading them.
    ``drain_timeout``
        On SIGTERM, how long to wait for in-flight work before closing
        anyway (deadlines keep being enforced during the drain, so this
        only bites when something is badly wrong).

    Observability:

    ``access_log``
        Path for the JSONL access log: a ``scwsc-trace/1`` file holding
        a meta record and then one ``access`` record per HTTP request
        (fields in :mod:`repro.obs.schema`). ``None`` disables it.

    Flight recorder (see :mod:`repro.obs.flightrec` and
    docs/OBSERVABILITY.md §10):

    ``flightrec``
        Arm the always-on ring buffers (default True; the recorder is
        bounded and its per-request work is one append per record, so
        it ships on). Ring capacities and the metrics-poll interval are
        :class:`~repro.obs.flightrec.FlightRecorder` constants.
    ``debug_endpoints``
        Serve the loopback-only ``GET /debug/*`` introspection routes.
    ``postmortem_dir``
        Spool directory for triggered ``scwsc-postmortem/1`` bundles;
        ``None`` disables the trigger engine (rings stay armed).
    ``postmortem_max_bytes`` / ``postmortem_max_bundles``
        Spool caps, enforced oldest-deleted-first.
    ``postmortem_interval``
        Per-trigger-kind rate limit: minimum seconds between bundles of
        the same trigger kind.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    memory_limit_mb: int | None = None
    max_inflight: int = 16
    max_queue_depth: int = 64
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    grace: float = 1.0
    max_requeues: int = 1
    read_timeout: float = 10.0
    max_body_bytes: int = 32 * 1024 * 1024
    max_batch: int = 256
    retry_after: float = 1.0
    drain_timeout: float = 30.0
    warm_timeout: float = 30.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    access_log: str | None = None
    flightrec: bool = True
    debug_endpoints: bool = True
    postmortem_dir: str | None = None
    postmortem_max_bytes: int = 16 * 1024 * 1024
    postmortem_max_bundles: int = 20
    postmortem_interval: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue_depth < 0:
            raise ValidationError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.default_deadline <= 0 or self.max_deadline <= 0:
            raise ValidationError(
                "default_deadline and max_deadline must be > 0, got "
                f"{self.default_deadline}/{self.max_deadline}"
            )
        if self.default_deadline > self.max_deadline:
            raise ValidationError(
                f"default_deadline {self.default_deadline} exceeds "
                f"max_deadline {self.max_deadline}"
            )
        if self.read_timeout <= 0:
            raise ValidationError(
                f"read_timeout must be > 0, got {self.read_timeout}"
            )
        if self.max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.postmortem_max_bundles < 1:
            raise ValidationError(
                f"postmortem_max_bundles must be >= 1, "
                f"got {self.postmortem_max_bundles}"
            )
        if self.postmortem_max_bytes < 1:
            raise ValidationError(
                f"postmortem_max_bytes must be >= 1, "
                f"got {self.postmortem_max_bytes}"
            )
        if self.postmortem_interval < 0:
            raise ValidationError(
                f"postmortem_interval must be >= 0, "
                f"got {self.postmortem_interval}"
            )
