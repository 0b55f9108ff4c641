"""Algorithm results and instrumentation counters.

Every algorithm in this library returns a :class:`CoverResult`: the chosen
sets, the objective values, and a :class:`Metrics` record. The metrics feed
Figure 6 of the paper ("number of patterns considered") and the runtime
tables, so they are first-class rather than debug logging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro._typing import Cost, SetId

#: The one authoritative list of Metrics fields with their (type, default).
#: Serializers everywhere — result payloads, pool IPC frames, bench report
#: entries, the obs metrics registry — derive from this instead of
#: hand-copying field names; adding a counter means adding it here and to
#: the dataclass, nowhere else.
METRIC_FIELDS: tuple[tuple[str, type, float], ...] = (
    ("sets_considered", int, 0),
    ("marginal_updates", int, 0),
    ("budget_rounds", int, 1),
    ("selections", int, 0),
    ("runtime_seconds", float, 0.0),
)


@dataclass
class Metrics:
    """Work counters accumulated during one algorithm run.

    Attributes
    ----------
    sets_considered:
        Number of candidate sets whose (marginal) benefit the algorithm
        materialized or inspected. For the pattern-optimized algorithms
        this is the paper's "patterns considered" measure (Fig. 6): every
        pattern whose benefit set was computed counts once per budget
        round it participates in, matching the paper's note that for CMC
        the counts are summed over all values of ``B``.
    marginal_updates:
        Number of per-set marginal-benefit updates performed after a
        selection.
    budget_rounds:
        Number of distinct budget values ``B`` tried (CMC only; 1 for
        single-pass algorithms).
    selections:
        Number of sets added to the output across all rounds (a CMC run
        that restarts counts selections from every round).
    runtime_seconds:
        Wall-clock time of the run as measured by the algorithm itself.
    """

    sets_considered: int = 0
    marginal_updates: int = 0
    budget_rounds: int = 1
    selections: int = 0
    runtime_seconds: float = 0.0

    def merge(self, other: "Metrics") -> "Metrics":
        """Sum counters with another run (used when composing phases)."""
        return Metrics(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name, _, _ in METRIC_FIELDS
            }
        )

    def to_dict(self) -> dict:
        """JSON-serializable counters, keyed by :data:`METRIC_FIELDS`."""
        return {name: getattr(self, name) for name, _, _ in METRIC_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict | None) -> "Metrics":
        """Rebuild from :meth:`to_dict` output; missing keys take their
        schema defaults, extra keys are ignored (forward compatibility
        across pool protocol versions)."""
        payload = payload or {}
        return cls(
            **{
                name: kind(payload.get(name, default))
                for name, kind, default in METRIC_FIELDS
            }
        )


@dataclass
class CoverResult:
    """Outcome of a set-cover algorithm run.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name, e.g. ``"cwsc"`` or ``"cmc"``.
    set_ids:
        Chosen sets in selection order. For pattern-level algorithms that
        never build a :class:`~repro.core.SetSystem`, ids index into
        :attr:`labels` only.
    labels:
        Per-chosen-set labels (patterns, names), parallel to
        :attr:`set_ids`.
    total_cost:
        Sum of chosen set costs.
    covered:
        Number of distinct elements covered by the union of chosen sets.
    n_elements:
        Universe size, so :attr:`coverage_fraction` is self-contained.
    feasible:
        Whether the run met its own coverage target. Algorithms with a
        fallback (e.g. CWSC returning the full-cover set) still report
        ``True``; ``False`` appears only when the caller asked for a
        best-effort result instead of an :class:`InfeasibleError`.
    params:
        The algorithm parameters that produced this result.
    metrics:
        Work counters for this run.
    """

    algorithm: str
    set_ids: tuple[SetId, ...]
    labels: tuple[Hashable, ...]
    total_cost: Cost
    covered: int
    n_elements: int
    feasible: bool
    params: dict = field(default_factory=dict)
    metrics: Metrics = field(default_factory=Metrics)

    @property
    def n_sets(self) -> int:
        """Number of sets in the solution."""
        return len(self.set_ids)

    @property
    def coverage_fraction(self) -> float:
        """Fraction of the universe covered (0.0 for an empty universe)."""
        if self.n_elements == 0:
            return 0.0
        return self.covered / self.n_elements

    def summary(self) -> str:
        """One-line human-readable description of the result."""
        return (
            f"{self.algorithm}: {self.n_sets} sets, cost={self.total_cost:g}, "
            f"coverage={self.covered}/{self.n_elements} "
            f"({self.coverage_fraction:.1%}), feasible={self.feasible}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation of the result.

        Labels are stringified with ``repr`` (patterns round-trip as
        their canonical text); metrics become a nested dict. Params keep
        scalars and one-level dicts of scalars — anything deeper or
        non-JSON is dropped.
        """
        return {
            "algorithm": self.algorithm,
            "set_ids": list(self.set_ids),
            "labels": [repr(label) for label in self.labels],
            "total_cost": self.total_cost,
            "covered": self.covered,
            "n_elements": self.n_elements,
            "coverage_fraction": self.coverage_fraction,
            "feasible": self.feasible,
            "params": {
                key: value
                for key, value in self.params.items()
                if _wire_safe(value)
            },
            "metrics": self.metrics.to_dict(),
        }


_SCALAR_TYPES = (int, float, str, bool, type(None))


def _wire_safe(value) -> bool:
    """True if a params value survives the JSON wire unchanged."""
    if isinstance(value, _SCALAR_TYPES):
        return True
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and isinstance(v, _SCALAR_TYPES)
            for k, v in value.items()
        )
    return False


def result_from_dict(payload: dict) -> CoverResult:
    """Rebuild a :class:`CoverResult` from :meth:`CoverResult.to_dict`.

    The round-trip is intentionally lossy in the same places ``to_dict``
    is: labels come back as their ``repr`` strings and only wire-safe
    params (scalars and flat dicts of scalars) survive. That is
    sufficient for experiment checkpoints, whose consumers read costs,
    coverage, and metrics — not live label objects.
    """
    metrics = Metrics.from_dict(payload.get("metrics"))
    return CoverResult(
        algorithm=payload["algorithm"],
        set_ids=tuple(payload["set_ids"]),
        labels=tuple(payload["labels"]),
        total_cost=payload["total_cost"],
        covered=payload["covered"],
        n_elements=payload["n_elements"],
        feasible=payload["feasible"],
        params=dict(payload.get("params", {})),
        metrics=metrics,
    )


def make_result(
    algorithm: str,
    chosen: Sequence[SetId],
    labels: Sequence[Hashable],
    total_cost: Cost,
    covered: int,
    n_elements: int,
    feasible: bool,
    params: dict,
    metrics: Metrics,
) -> CoverResult:
    """Normalize sequences into a :class:`CoverResult`."""
    return CoverResult(
        algorithm=algorithm,
        set_ids=tuple(chosen),
        labels=tuple(labels),
        total_cost=total_cost,
        covered=covered,
        n_elements=n_elements,
        feasible=feasible,
        params=dict(params),
        metrics=metrics,
    )
