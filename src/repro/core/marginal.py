"""Marginal-benefit bookkeeping shared by the greedy algorithms.

The paper's algorithms repeatedly need, for every remaining candidate set
``s``, the marginal benefit ``MBen(s, S)`` — the elements of ``Ben(s)`` not
yet covered by the partial solution ``S``. A naive implementation recomputes
``Ben(s) \\ covered`` for every set after every selection (the loops in
Fig. 1 lines 24–27 and Fig. 2 lines 12–15).

Two interchangeable trackers implement the bookkeeping:

* :class:`~repro.core.packed.PackedMarginalTracker` — the production
  kernel (:mod:`repro.core.packed`): benefits live in a columnar
  ``(n_sets, ceil(n/64))`` ``uint64`` matrix (dense or CSR-blocked by
  density), selection updates are vectorized gather/AND/popcount
  passes with no per-set Python, and the solvers use its vectorized
  argmax helpers instead of scanning ``live_items()``.
* :class:`MarginalTracker` — the reference oracle: a static inverted
  index ``element -> sets containing it`` plus per-set marginal
  *counts*, so selecting a set only touches the sets that actually
  intersect it (the standard lazy implementation of greedy set cover).
  Its constants win only on tiny instances.

Both produce **identical selections and identical metrics counters** —
property-tested in ``tests/property/test_props_backend.py`` — so
:func:`make_tracker` is free to pick by instance size (overridable via
its ``backend`` argument or the ``REPRO_SETCOVER_BACKEND`` environment
variable; see docs/PERFORMANCE.md).

CMC restarts from scratch for every budget guess ``B``; :meth:`reset`
supports that without rebuilding the static structures.
"""

from __future__ import annotations

import os
from typing import Iterable, Literal

from repro._typing import ElementId, SetId
from repro.core.result import Metrics
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.obs import trace as obs_trace

TrackerBackend = Literal["auto", "set", "packed"]

#: Backend names accepted by :func:`resolve_backend`.
KNOWN_BACKENDS = ("auto", "set", "packed")

#: Environment override for the default tracker backend.
BACKEND_ENV_VAR = "REPRO_SETCOVER_BACKEND"

#: ``auto`` picks the packed kernel from this many ``n_elements *
#: n_sets`` cells. Below it the inverted index's constants can win, by
#: a few milliseconds per solve at most; docs/PERFORMANCE.md §2 records
#: the cold set-vs-packed sweep behind the number.
AUTO_PACKED_MIN_CELLS = 1 << 12

#: ``auto`` only picks ``packed`` when the estimated layout footprint
#: stays below this fraction of ``MemAvailable``.
AUTO_PACKED_MEM_FRACTION = 0.5


class MarginalTracker:
    """Tracks ``|MBen(s, S)|`` for every live candidate set.

    Parameters
    ----------
    system:
        The set system whose candidates are tracked.
    restrict_to:
        Optional subset of set ids to track; defaults to all sets.
    metrics:
        Optional shared :class:`Metrics` to account work into.

    Notes
    -----
    Sets whose marginal benefit drops to zero are evicted automatically,
    matching Fig. 1 lines 26–27 / Fig. 2 lines 14–15. Empty sets are never
    live.
    """

    backend_name = "set"

    def __init__(
        self,
        system: SetSystem,
        restrict_to: Iterable[SetId] | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self._system = system
        sets = system.sets  # the oracle reads per-set objects throughout
        self._metrics = metrics if metrics is not None else Metrics()
        ids = range(system.n_sets) if restrict_to is None else list(restrict_to)
        self._tracked: list[SetId] = [
            set_id for set_id in ids if sets[set_id].benefit
        ]
        # Static structures, shared across reset() rounds.
        self._element_to_sets: dict[ElementId, tuple[SetId, ...]] = {}
        owners: dict[ElementId, list[SetId]] = {}
        for set_id in self._tracked:
            for element in sets[set_id].benefit:
                owners.setdefault(element, []).append(set_id)
        self._element_to_sets = {
            element: tuple(ids) for element, ids in owners.items()
        }
        # Mutable per-round state.
        self._mben_count: dict[SetId, int] = {}
        self._covered: set[ElementId] = set()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the empty-solution state (new CMC budget round).

        Counts every live set as considered again, matching the paper's
        note that CMC's "patterns considered" sums over budget rounds.
        """
        sets = self._system.sets
        self._mben_count = {
            set_id: sets[set_id].size for set_id in self._tracked
        }
        self._covered = set()
        self._metrics.sets_considered += len(self._tracked)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Metrics:
        """The metrics object this tracker accounts work into."""
        return self._metrics

    @property
    def covered(self) -> frozenset[ElementId]:
        """Elements covered by all selections so far this round."""
        return frozenset(self._covered)

    @property
    def covered_count(self) -> int:
        """``|covered|`` without copying."""
        return len(self._covered)

    @property
    def live_ids(self) -> list[SetId]:
        """Ids of sets with non-empty marginal benefit, ascending."""
        return sorted(self._mben_count)

    def live_items(self) -> list[tuple[SetId, int]]:
        """``(set_id, |MBen|)`` pairs for all live sets, unordered."""
        return list(self._mben_count.items())

    def __contains__(self, set_id: SetId) -> bool:
        return set_id in self._mben_count

    def __len__(self) -> int:
        return len(self._mben_count)

    def marginal_size(self, set_id: SetId) -> int:
        """``|MBen(s, S)|`` for a live set; 0 for an evicted one."""
        return self._mben_count.get(set_id, 0)

    def marginal_benefit(self, set_id: SetId) -> frozenset[ElementId]:
        """A snapshot of ``MBen(s, S)``, materialized on demand."""
        if set_id not in self._mben_count:
            return frozenset()
        return frozenset(
            self._system.sets[set_id].benefit - self._covered
        )

    def marginal_gain(self, set_id: SetId) -> float:
        """``MGain(s, S) = |MBen(s, S)| / Cost(s)``."""
        size = self.marginal_size(set_id)
        cost = self._system.sets[set_id].cost
        if cost == 0:
            return float("inf") if size else 0.0
        return size / cost

    def drop(self, set_id: SetId) -> None:
        """Remove a set from consideration without selecting it."""
        self._mben_count.pop(set_id, None)

    def select(self, set_id: SetId) -> int:
        """Mark a set as chosen; returns the number of newly covered elements.

        Decrements the marginal count of every intersecting candidate and
        evicts candidates whose marginal benefit becomes empty.
        """
        self._mben_count.pop(set_id, None)
        self._metrics.selections += 1
        newly = [
            element
            for element in self._system.sets[set_id].benefit
            if element not in self._covered
        ]
        counts = self._mben_count
        updates = 0
        for element in newly:
            self._covered.add(element)
            for other in self._element_to_sets.get(element, ()):
                remaining = counts.get(other)
                if remaining is None:
                    continue
                updates += 1
                if remaining == 1:
                    del counts[other]
                else:
                    counts[other] = remaining - 1
        self._metrics.marginal_updates += updates
        if obs_trace.enabled():
            obs_trace.event(
                "tracker_update",
                backend="set",
                strategy="inverted",
                set_id=set_id,
                newly_covered=len(newly),
                updates=updates,
                live=len(counts),
            )
        return len(newly)


def _available_memory_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo; None when unknowable."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    return None


def _packed_layout_bytes(system: SetSystem) -> int:
    """Estimated packed-layout footprint: min(dense, CSR) in bytes.

    Dense needs ``n_sets * ceil(n/64) * 8`` bytes; the CSR form needs
    roughly 24 bytes per (set, element) pair (word + col + owner entry),
    so density — not just cell count — decides affordability.
    """
    n_words = (system.n_elements + 63) >> 6
    dense = system.n_sets * n_words * 8
    return min(dense, system.n_pairs * 24)


def resolve_backend(
    system: SetSystem, backend: TrackerBackend | None = None
) -> str:
    """Resolve ``backend`` to ``"set"`` or ``"packed"``.

    Precedence: the explicit ``backend`` argument wins, then the
    ``REPRO_SETCOVER_BACKEND`` environment variable, then ``"auto"``.

    Auto picks ``"packed"`` from :data:`AUTO_PACKED_MIN_CELLS`
    element-set cells, unless no layout is cached yet and the estimated
    columnar footprint (the cheaper of the dense and CSR forms, so
    sparse instances qualify even when the dense matrix would not)
    exceeds :data:`AUTO_PACKED_MEM_FRACTION` of ``MemAvailable``;
    otherwise ``"set"``.
    """
    choice = backend or os.environ.get(BACKEND_ENV_VAR) or "auto"
    if choice not in KNOWN_BACKENDS:
        raise ValidationError(
            f"unknown tracker backend {choice!r}; "
            f"expected one of {', '.join(repr(b) for b in KNOWN_BACKENDS)}"
        )
    if choice != "auto":
        return choice
    if system.n_elements * system.n_sets < AUTO_PACKED_MIN_CELLS:
        return "set"
    from repro.core.packed import cached_layout

    if cached_layout(system) is not None:
        # The layout's memory is already spent; skip the O(m) estimate.
        return "packed"
    budget = _available_memory_bytes()
    if budget is not None and (
        _packed_layout_bytes(system) > AUTO_PACKED_MEM_FRACTION * budget
    ):
        return "set"
    return "packed"


def make_tracker(
    system: SetSystem,
    restrict_to: Iterable[SetId] | None = None,
    metrics: Metrics | None = None,
    backend: TrackerBackend | None = None,
):
    """Build the marginal tracker for a system, choosing the backend.

    See :func:`resolve_backend` for the selection rules. Both backends
    yield identical selections and metrics; only speed differs.
    """
    if resolve_backend(system, backend) == "packed":
        from repro.core.packed import PackedMarginalTracker

        return PackedMarginalTracker(
            system, restrict_to=restrict_to, metrics=metrics
        )
    return MarginalTracker(system, restrict_to=restrict_to, metrics=metrics)
