"""Columnar packed coverage kernel (numpy ``uint64``) — the production
marginal tracker.

A set's benefit becomes one row of a columnar ``(n_sets, ceil(n/64))``
matrix of ``uint64`` words, stored dense when small enough and
CSR-blocked by density otherwise (only a set's nonzero words are kept),
so a selection updates *every* live marginal with a handful of
vectorized gather / AND / ``np.bitwise_count`` / ``bincount`` passes —
no per-set Python at all.

Two layers and their helpers:

* :class:`PackedLayout` — the immutable columnar form of one
  :class:`~repro.core.setsystem.SetSystem` (word matrix, per-set cached
  popcounts, element->owners CSR), built once per system and weakly
  cached (:func:`packed_layout`). Because the pool worker LRU caches
  deserialized systems by sha256 fingerprint
  (:data:`repro.resilience.pool.protocol.SYSTEM_CACHE_SIZE`), repeat
  requests and benchmark warm-ups reuse the layout through the same path.
* :class:`PackedMarginalTracker` — the drop-in tracker
  (:func:`repro.core.marginal.make_tracker` backend ``"packed"``): same
  API, same selections, same :class:`~repro.core.result.Metrics`
  counters as the ``set`` reference oracle, property-tested in
  ``tests/property/test_props_backend.py``. Its vectorized argmaxes
  (:meth:`~PackedMarginalTracker.best_gain_candidate` for every
  gain-greedy pick, :meth:`~PackedMarginalTracker.best_benefit_in` for
  every benefit-greedy pick) are the production selection step of every
  greedy solver and reproduce the exact lexicographic tie-breaks of
  :mod:`repro.core.greedy_common`.
* Helpers shared with the solvers: :func:`canonical_ranks` and
  :func:`assign_levels`.

``np.bitwise_count`` needs numpy >= 2.0, which the package pins.

Nothing here imports :mod:`repro.core.setsystem` — builders duck-type
``system.n_elements`` / ``system.csr()`` — so
:meth:`SetSystem.coverage_of` can consult :func:`cached_layout` without
an import cycle.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from repro._typing import ElementId, SetId
from repro.core.greedy_common import canonical_keys
from repro.core.result import Metrics
from repro.errors import ValidationError
from repro.obs import trace as obs_trace

__all__ = [
    "DENSE_BYTE_CAP",
    "PackedLayout",
    "PackedMarginalTracker",
    "assign_levels",
    "cached_layout",
    "canonical_ranks",
    "packed_layout",
]

#: Above this many bytes the dense ``(n_sets, n_words)`` matrix is
#: replaced by the CSR-blocked form (only nonzero words stored). The
#: paper-scale instances are extremely sparse (density ~1e-4 at
#: n = 10^5), where dense would need gigabytes for megabytes of data.
DENSE_BYTE_CAP = 32 * 1024 * 1024


def _mask_elements(words) -> "np.ndarray":
    """Set-bit positions of a little-endian ``uint64`` word vector."""
    if words.size == 0:
        return np.empty(0, dtype=np.int64)
    bits = np.unpackbits(
        np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
        bitorder="little",
    )
    return np.nonzero(bits)[0].astype(np.int64)


def _gather_ranges(starts, ends) -> "np.ndarray":
    """Concatenated ``arange(starts[i], ends[i])`` without a Python loop."""
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        ([0], np.cumsum(lengths)[:-1])
    )
    return np.repeat(starts - offsets, lengths) + np.arange(
        total, dtype=np.int64
    )


class PackedLayout:
    """Columnar word-packed form of one set system (immutable).

    Attributes
    ----------
    n_elements, n_words, n_sets:
        Universe size, ``ceil(n_elements / 64)``, and set count.
    sizes:
        ``int64[n_sets]`` — per-set cached popcounts (``|Ben(s)|``).
    costs:
        ``float64[n_sets]`` — per-set costs.
    data, cols, rows, indptr:
        The CSR-blocked matrix: nonzero words in set-id-major,
        word-ascending order. ``indptr[s]:indptr[s+1]`` slices set
        ``s``'s words.
    dense:
        The full ``(n_sets, n_words)`` ``uint64`` matrix, present only
        when it fits :data:`DENSE_BYTE_CAP`; sweeps then broadcast over
        it instead of gathering through CSR.
    owners_data, owners_indptr:
        Element->owning-set-ids CSR (the inverted index, packed).
    """

    __slots__ = (
        "n_elements", "n_words", "n_sets",
        "sizes", "costs", "data", "cols", "rows", "indptr",
        "dense", "owners_data", "owners_indptr", "__weakref__",
    )

    def __init__(
        self, n_elements, n_sets, sizes, costs,
        data, cols, rows, indptr, owners_data, owners_indptr,
        dense_byte_cap=DENSE_BYTE_CAP,
    ) -> None:
        self.n_elements = int(n_elements)
        self.n_words = (self.n_elements + 63) >> 6
        self.n_sets = int(n_sets)
        self.sizes = sizes
        self.costs = costs
        self.data = data
        self.cols = cols
        self.rows = rows
        self.indptr = indptr
        self.owners_data = owners_data
        self.owners_indptr = owners_indptr
        self.dense = None
        if self.n_sets * self.n_words * 8 <= dense_byte_cap:
            dense = np.zeros((self.n_sets, self.n_words), dtype=np.uint64)
            dense[rows, cols] = data
            self.dense = dense

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, system, dense_byte_cap: int = DENSE_BYTE_CAP
              ) -> "PackedLayout":
        """Pack a set system from its CSR (:meth:`SetSystem.csr`): each
        set's elements are ascending, so its (set, word) keys arrive
        sorted and one ``reduceat`` ORs them into words."""
        set_indptr, els, costs = system.csr()
        # -0.0 + 0.0 is +0.0: a zero-cost set's gain then divides to
        # +inf, as the set oracle scores it, never to -inf.
        costs = costs + 0.0
        n = int(system.n_elements)
        m = len(costs)
        set_sizes = np.diff(set_indptr)
        if els.size and (els.min() < 0 or els.max() >= n):
            raise ValidationError(
                "benefit element outside universe "
                f"[0, {n}) while packing the columnar layout"
            )
        rows = np.repeat(np.arange(m, dtype=np.int64), set_sizes)
        n_words = (n + 63) >> 6
        key = rows * max(1, n_words) + (els >> 6)
        bits = np.left_shift(np.uint64(1), (els & 63).astype(np.uint64))
        if key.size:
            boundary = np.empty(key.size, dtype=bool)
            boundary[0] = True
            np.not_equal(key[1:], key[:-1], out=boundary[1:])
            starts = np.nonzero(boundary)[0]
            data = np.bitwise_or.reduceat(bits, starts)
            unique_key = key[starts]
            out_rows = (unique_key // max(1, n_words)).astype(np.int64)
            out_cols = (unique_key % max(1, n_words)).astype(np.int64)
        else:
            data = np.empty(0, dtype=np.uint64)
            out_rows = np.empty(0, dtype=np.int64)
            out_cols = np.empty(0, dtype=np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows, minlength=m), out=indptr[1:])
        owners_order = np.argsort(els, kind="stable")
        owners_data = rows[owners_order]
        owners_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(els, minlength=n), out=owners_indptr[1:])
        layout = cls(
            n, m, set_sizes, costs, data, out_cols, out_rows,
            indptr, owners_data, owners_indptr, dense_byte_cap,
        )
        _layout_build_counter().inc(
            form="dense" if layout.dense is not None else "csr"
        )
        return layout

    # ------------------------------------------------------------------
    @property
    def nnz_words(self) -> int:
        """Stored (nonzero) words; the cost unit of one CSR sweep."""
        return int(self.data.size)

    def row_words(self, set_id: SetId) -> "np.ndarray":
        """Set ``set_id``'s benefit as a fresh ``uint64[n_words]``."""
        if self.dense is not None:
            return self.dense[set_id].copy()
        out = np.zeros(self.n_words, dtype=np.uint64)
        start, end = self.indptr[set_id], self.indptr[set_id + 1]
        out[self.cols[start:end]] = self.data[start:end]
        return out

    def union_words(self, set_ids: Iterable[SetId]) -> "np.ndarray":
        """Packed union of the benefits of a collection of sets."""
        out = np.zeros(self.n_words, dtype=np.uint64)
        for set_id in set_ids:
            start, end = self.indptr[set_id], self.indptr[set_id + 1]
            np.bitwise_or.at(out, self.cols[start:end], self.data[start:end])
        return out

    def coverage_of(self, set_ids: Iterable[SetId]) -> int:
        """``|union of benefits|`` for a collection of sets."""
        return int(
            np.bitwise_count(self.union_words(set_ids)).sum()
        )

    def elements_of(self, set_id: SetId) -> "np.ndarray":
        """Element ids of ``Ben(set_id)``."""
        return _mask_elements(self.row_words(set_id))


# ----------------------------------------------------------------------
# Per-system caches (the weak-cache idiom of greedy_common)
# ----------------------------------------------------------------------
_LAYOUT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_RANKS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_BUILD_COUNTER = None
_SELECT_COUNTER = None


def _layout_build_counter():
    global _BUILD_COUNTER
    if _BUILD_COUNTER is None:
        from repro.obs.metrics import get_registry

        _BUILD_COUNTER = get_registry().counter(
            "scwsc_packed_layout_builds_total",
            "Columnar packed layouts built (cache misses), by form",
        )
    return _BUILD_COUNTER


def _select_counter():
    global _SELECT_COUNTER
    if _SELECT_COUNTER is None:
        from repro.obs.metrics import get_registry

        _SELECT_COUNTER = get_registry().counter(
            "scwsc_packed_selects_total",
            "Packed-tracker selections, by update strategy",
        )
    return _SELECT_COUNTER


def packed_layout(system) -> PackedLayout:
    """The (weakly cached) :class:`PackedLayout` of a set system."""
    try:
        layout = _LAYOUT_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        return PackedLayout.build(system)
    if layout is None:
        layout = PackedLayout.build(system)
        try:
            _LAYOUT_CACHE[system] = layout
        except TypeError:  # pragma: no cover - stand-in objects only
            pass
    return layout


def cached_layout(system) -> PackedLayout | None:
    """The cached layout if one exists; never triggers a build.

    :meth:`SetSystem.coverage_of` consults this first and otherwise
    takes a set union of the chosen sets' CSR slices, so a coverage check never pays for a
    layout build.
    """
    try:
        return _LAYOUT_CACHE.get(system)
    except TypeError:
        return None


def canonical_ranks(system) -> "np.ndarray":
    """``int64[n_sets]`` ranking sets by their canonical tie-break key.

    ``ranks[a] < ranks[b]`` iff ``canonical_key(a) < canonical_key(b)``
    — canonical keys embed the set id, so the order is total and the
    rank comparison reproduces the key comparison exactly. Weakly
    cached; building it costs one sort over the (cached) keys, unless
    the system's ``labels_sorted`` says the ids already rank the keys.
    """
    try:
        ranks = _RANKS_CACHE.get(system)
    except TypeError:
        ranks = None
    if ranks is not None:
        return ranks
    if getattr(system, "labels_sorted", False):
        ranks = np.arange(system.n_sets, dtype=np.int64)
    else:
        keys = canonical_keys(system)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[np.asarray(order, dtype=np.int64)] = np.arange(
            len(keys), dtype=np.int64
        )
    try:
        _RANKS_CACHE[system] = ranks
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return ranks


def assign_levels(costs, scheme) -> "np.ndarray":
    """Vectorized :meth:`~repro.core.budget.LevelScheme.level_of`.

    Returns ``int64[n_sets]`` with ``-1`` for unaffordable sets; agrees
    with ``level_of`` element-wise (property-tested). Bounds are
    contiguous and descending, so the level is a ``searchsorted`` count
    of lower bounds strictly below the cost.
    """
    lower_desc = np.asarray(scheme.lower_bounds, dtype=np.float64)
    ascending = lower_desc[::-1]
    below = np.searchsorted(ascending, costs, side="left")
    levels = (scheme.n_levels - below).astype(np.int64)
    # cost <= lower_bounds[-1] (only cost == 0) lands past the end:
    # clamp to the cheapest level, exactly like level_of.
    np.minimum(levels, scheme.n_levels - 1, out=levels)
    levels[costs > scheme.budget] = -1
    return levels


# ----------------------------------------------------------------------
# The tracker
# ----------------------------------------------------------------------
class PackedMarginalTracker:
    """Columnar drop-in for the ``set`` marginal tracker.

    Same API, same selections, same metrics counters
    (``marginal_updates`` counts, for every live candidate, the exact
    ``|newly & Ben(candidate)|`` decrement — the invariant both
    backends share). The argmax helpers reproduce the exact
    lexicographic orders of :func:`repro.core.greedy_common.gain_key` /
    :func:`~repro.core.greedy_common.benefit_key`: numpy's float64
    division and comparisons are IEEE-identical to CPython's, and
    :func:`canonical_ranks` reproduces the canonical-key order.
    """

    backend_name = "packed"

    def __init__(
        self,
        system,
        restrict_to: Iterable[SetId] | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self._system = system
        self._metrics = metrics if metrics is not None else Metrics()
        self._layout = packed_layout(system)
        tracked = self._layout.sizes > 0
        if restrict_to is not None:
            keep = np.zeros(self._layout.n_sets, dtype=bool)
            for set_id in restrict_to:
                keep[set_id] = True
            tracked = tracked & keep
        self._tracked = tracked
        self._n_tracked = int(tracked.sum())
        self._counts = np.zeros(self._layout.n_sets, dtype=np.int64)
        self._live = np.zeros(self._layout.n_sets, dtype=bool)
        self._covered = np.zeros(self._layout.n_words, dtype=np.uint64)
        self._covered_count = 0
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the empty-solution state (new CMC budget round)."""
        np.multiply(
            self._layout.sizes, self._tracked, out=self._counts
        )
        np.copyto(self._live, self._tracked)
        self._covered[:] = 0
        self._covered_count = 0
        self._metrics.sets_considered += self._n_tracked

    # ------------------------------------------------------------------
    def best_gain_candidate(
        self, threshold: float, ids=None
    ) -> SetId | None:
        """Argmax of ``gain_key`` over live sets with size >= threshold.

        The gain-greedy selection step (CWSC's Fig. 2 lines 5-6 and the
        baselines with threshold 0): maximize marginal gain, ties to
        larger benefit, then lower cost, then the canonical key.
        ``ids``, an optional ``int64`` id array, restricts the candidates
        without evicting anything.
        """
        counts = self._counts
        if ids is None:
            ids = np.nonzero(self._live & (counts >= threshold))[0]
        else:
            ids = ids[self._live[ids] & (counts[ids] >= threshold)]
        if ids.size == 0:
            return None
        with np.errstate(divide="ignore", over="ignore"):
            gains = counts[ids] / self._layout.costs[ids]
        return self._break_ties(ids[gains == gains.max()])

    def best_benefit_in(self, member_ids) -> SetId | None:
        """Argmax of ``benefit_key`` over live sets among ``member_ids``.

        The benefit-greedy selection step (CMC's per-level pick, max
        coverage): maximize marginal benefit, ties to lower cost, then
        the canonical key. ``member_ids`` is an ``int64`` id array.
        """
        ids = member_ids[self._live[member_ids]]
        if ids.size == 0:
            return None
        return self._break_ties(ids)

    def _break_ties(self, ids) -> SetId:
        """The id in ``ids`` with the largest marginal benefit, then the
        lowest cost, then the smallest canonical key."""
        sizes = self._counts[ids]
        ids = ids[sizes == sizes.max()]
        if ids.size > 1:
            costs = self._layout.costs[ids]
            ids = ids[costs == costs.min()]
        if ids.size > 1:
            ranks = canonical_ranks(self._system)[ids]
            return int(ids[ranks.argmin()])
        return int(ids[0])

    @property
    def metrics(self) -> Metrics:
        """The metrics object this tracker accounts work into."""
        return self._metrics

    @property
    def covered(self) -> frozenset[ElementId]:
        """Elements covered by all selections so far this round."""
        return frozenset(_mask_elements(self._covered).tolist())

    @property
    def covered_count(self) -> int:
        """``|covered|`` without copying."""
        return self._covered_count

    @property
    def costs(self) -> "np.ndarray":
        """Per-set costs, for vectorized level assignment."""
        return self._layout.costs

    @property
    def live_ids(self) -> list[SetId]:
        """Ids of sets with non-empty marginal benefit, ascending."""
        return np.nonzero(self._live)[0].tolist()

    def live_items(self) -> list[tuple[SetId, int]]:
        """``(set_id, |MBen|)`` pairs for all live sets."""
        ids = np.nonzero(self._live)[0]
        return list(zip(ids.tolist(), self._counts[ids].tolist()))

    def __contains__(self, set_id: SetId) -> bool:
        return bool(self._live[set_id])

    def __len__(self) -> int:
        return int(self._live.sum())

    def marginal_size(self, set_id: SetId) -> int:
        """``|MBen(s, S)|`` for a live set; 0 for an evicted one."""
        return int(self._counts[set_id])

    def marginal_benefit(self, set_id: SetId) -> frozenset[ElementId]:
        """A snapshot of ``MBen(s, S)``, materialized on demand."""
        if not self._live[set_id]:
            return frozenset()
        remaining = self._layout.row_words(set_id) & ~self._covered
        return frozenset(_mask_elements(remaining).tolist())

    def marginal_gain(self, set_id: SetId) -> float:
        """``MGain(s, S) = |MBen(s, S)| / Cost(s)``."""
        size = int(self._counts[set_id])
        cost = float(self._layout.costs[set_id])
        if cost == 0:
            return float("inf") if size else 0.0
        return size / cost

    def drop(self, set_id: SetId) -> None:
        """Remove a set from consideration without selecting it."""
        self._live[set_id] = False
        self._counts[set_id] = 0

    # ------------------------------------------------------------------
    def select(self, set_id: SetId) -> int:
        """Mark a set as chosen; returns the number of newly covered.

        One vectorized update pass over all live marginals, choosing
        between two strategies by exact cost (both apply identical
        decrements, so ``marginal_updates`` stays backend-identical):

        * **owners gather** — gather the owner lists of the newly
          covered elements through the element->sets CSR and histogram
          them (cheap when few elements flip);
        * **mask sweep** — AND the newly-covered words against the
          whole columnar matrix and popcount (one broadcasted pass;
          cheap when the flip is wide).
        """
        newly, overlap, strategy = self._apply_select(set_id)
        if not newly:
            return 0
        updates = int(overlap.sum())
        self._counts -= overlap
        np.logical_and(self._live, self._counts > 0, out=self._live)
        self._metrics.marginal_updates += updates
        _select_counter().inc(strategy=strategy)
        if obs_trace.enabled():
            obs_trace.event(
                "tracker_update",
                backend="packed",
                strategy=strategy,
                set_id=set_id,
                newly_covered=newly,
                updates=updates,
                live=int(self._live.sum()),
            )
        return newly

    def _apply_select(self, set_id: SetId):
        """Pop the set, flip its new elements, compute live overlaps.

        The uninstrumented core of :meth:`select`; the tracing-overhead
        tests time :meth:`select` against it.
        """
        layout = self._layout
        self._metrics.selections += 1
        self._live[set_id] = False
        self._counts[set_id] = 0
        newly_words = layout.row_words(set_id)
        np.bitwise_and(newly_words, ~self._covered, out=newly_words)
        newly = int(np.bitwise_count(newly_words).sum())
        if not newly:
            return 0, None, None
        self._covered |= newly_words
        self._covered_count += newly
        elements = _mask_elements(newly_words)
        owner_pairs = int(
            (layout.owners_indptr[elements + 1]
             - layout.owners_indptr[elements]).sum()
        )
        sweep_cost = (
            layout.n_sets * layout.n_words
            if layout.dense is not None
            else layout.nnz_words
        )
        if owner_pairs <= sweep_cost:
            strategy = "owners_gather"
            touched = layout.owners_data[
                _gather_ranges(
                    layout.owners_indptr[elements],
                    layout.owners_indptr[elements + 1],
                )
            ]
            overlap = np.bincount(touched, minlength=layout.n_sets)
        elif layout.dense is not None:
            strategy = "mask_sweep"
            overlap = (
                np.bitwise_count(layout.dense & newly_words[None, :])
                .sum(axis=1)
                .astype(np.int64)
            )
        else:
            strategy = "mask_sweep"
            hits = layout.data & newly_words[layout.cols]
            overlap = np.bincount(
                layout.rows,
                weights=np.bitwise_count(hits).astype(np.int64),
                minlength=layout.n_sets,
            ).astype(np.int64)
        # Only live candidates take decrements (matching the dict-based
        # reference, where evicted sets are simply absent).
        overlap = np.where(self._live, overlap, 0).astype(np.int64)
        return newly, overlap, strategy
