"""Cooperative deadlines for the core solvers.

The paper's algorithms are all iterative, so instead of threads or signals
we use *cooperative* cancellation: a :class:`Deadline` is threaded through a
solver call, and the solver polls it at checkpoints inside its greedy /
search loops. When the deadline expires the solver raises
:class:`~repro.errors.DeadlineExceeded` with the best partial
:class:`~repro.core.result.CoverResult` it has found, so a caller (notably
:func:`repro.resilience.resilient_solve`) can degrade gracefully instead of
losing all work.

Polling every inner-loop iteration would put a ``perf_counter`` call on the
hot path, so :meth:`Deadline.poll` only reads the clock every
``stride`` calls. With the default stride of 64 the added cost is a counter
increment per iteration, while a 50 ms deadline is still honored within a
few hundred microseconds on the loop bodies used here.

This module deliberately depends only on the standard library and
:mod:`repro.errors`, so every core solver can import it without cycles.
"""

from __future__ import annotations

import math
import time

from repro.errors import ValidationError

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget that solvers poll cooperatively.

    Parameters
    ----------
    seconds:
        Budget from *now*; ``math.inf`` means "never expires".
    stride:
        How many :meth:`poll` calls share one clock read.

    Examples
    --------
    >>> deadline = Deadline.after(0.5)
    >>> deadline.expired()
    False
    >>> Deadline.never().remaining()
    inf
    """

    __slots__ = ("_expires_at", "_stride", "_countdown")

    def __init__(self, seconds: float, stride: int = 64) -> None:
        if math.isnan(seconds) or seconds < 0:
            raise ValidationError(
                f"deadline seconds must be >= 0, got {seconds!r}"
            )
        if stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        self._expires_at = (
            math.inf if math.isinf(seconds) else time.monotonic() + seconds
        )
        self._stride = stride
        self._countdown = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def after(cls, seconds: float, stride: int = 64) -> "Deadline":
        """A deadline expiring ``seconds`` from now."""
        return cls(seconds, stride=stride)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires (useful as a neutral default)."""
        return cls(math.inf)

    def sub(self, seconds: float) -> "Deadline":
        """A child deadline: ``seconds`` from now, capped by this one.

        Used by the fallback chain to give each stage its slice of the
        total budget without ever outliving the overall deadline.
        """
        child = Deadline(max(0.0, min(seconds, self.remaining())),
                         stride=self._stride)
        return child

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left (``inf`` for a never-expiring deadline, >= 0)."""
        if math.isinf(self._expires_at):
            return math.inf
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """Whether the deadline has passed (always reads the clock)."""
        if math.isinf(self._expires_at):
            return False
        return time.monotonic() >= self._expires_at

    def poll(self) -> bool:
        """Cheap strided expiry check for hot loops.

        Reads the clock only every ``stride`` calls; returns ``True``
        when the deadline is known to have expired.
        """
        if math.isinf(self._expires_at):
            return False
        if self._countdown > 0:
            self._countdown -= 1
            return False
        self._countdown = self._stride - 1
        return time.monotonic() >= self._expires_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.3f}s)"
