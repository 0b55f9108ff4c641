"""Admission control for the solver daemon: caps and shed reasons.

The daemon's robustness story starts before a request touches the pool:
every request passes through one :class:`AdmissionController` that
decides *admit* or *shed* under a lock, so overload turns into prompt
429s with honest ``Retry-After`` hints instead of unbounded queues.

Shedding order is cheapest-first:

1. ``draining`` — the server received SIGTERM; nothing new is admitted.
2. ``inflight`` — the global admitted-but-unanswered cap is hit.
3. ``queue`` — the pool's dispatch queue is at depth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.serve.config import ServeConfig

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of :meth:`AdmissionController.try_admit`."""

    admitted: bool
    reason: str | None = None
    retry_after: float = 0.0


class AdmissionController:
    """Single gate in front of the dispatcher.

    ``try_admit`` reserves capacity for ``n`` requests; the caller MUST
    pair every successful admit with exactly one :meth:`release` for the
    same ``n``, whatever the request's fate (answered,
    deadline-exhausted, connection lost).
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self._lock = threading.Lock()
        self._inflight = 0
        self._draining = False

    # -- lifecycle -------------------------------------------------------

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- admission -------------------------------------------------------

    def try_admit(self, n: int = 1, queue_depth: int = 0) -> AdmissionDecision:
        """Reserve room for ``n`` requests.

        ``queue_depth`` is the pool's current dispatch-queue length as
        sampled by the caller; it backs the ``queue`` shed reason.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        retry = self.config.retry_after
        with self._lock:
            if self._draining:
                return AdmissionDecision(False, "draining", retry)
            if self._inflight + n > self.config.max_inflight:
                return AdmissionDecision(False, "inflight", retry)
            if queue_depth + n > self.config.max_queue_depth:
                return AdmissionDecision(False, "queue", retry)
            self._inflight += n
            return AdmissionDecision(True)

    def release(self, n: int = 1) -> None:
        """Return capacity reserved by a successful :meth:`try_admit`."""
        with self._lock:
            self._inflight = max(0, self._inflight - n)
