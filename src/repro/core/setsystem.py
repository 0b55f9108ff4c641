"""The weighted set system that all core algorithms operate on.

A :class:`SetSystem` holds ``n`` elements (dense integers ``0 .. n-1``) and
``m`` candidate sets, each with a frozen benefit set and a non-negative
cost. This mirrors the paper's problem statement (Definition 1): the input
is a collection of elements ``T`` and a collection of weighted sets over
``T``. The paper additionally assumes a set that covers all of ``T`` exists
(for patterned inputs this is the all-wildcards pattern); we expose
:attr:`SetSystem.has_full_cover` so algorithms that rely on the assumption
can check it.

Every system keeps its sets as three arrays — ``indptr``, the ascending
element ids of every set, and the costs (:meth:`SetSystem.csr`) — and the
counts, costs and coverage queries read those. The :class:`WeightedSet`
tuple (:attr:`SetSystem.sets`) is what a per-set system is built from;
:meth:`SetSystem.from_csr` (the pattern enumeration) and
:meth:`SetSystem.from_iterables` (decoded payloads) systems create it
only when something reads it (the ``set`` reference oracle and other
per-set readers), so the packed kernel never needs one object per set.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._typing import Cost, ElementId, SetId
from repro.errors import ValidationError


@dataclass(frozen=True)
class WeightedSet:
    """One candidate set: an immutable benefit set plus a cost.

    Parameters
    ----------
    set_id:
        Dense index of the set within its :class:`SetSystem`.
    benefit:
        The elements this set covers — ``Ben(s)`` in the paper.
    cost:
        Non-negative weight — ``Cost(s)``. ``math.inf`` is allowed and
        means the set is never worth choosing.
    label:
        Optional human-readable identity (e.g. the pattern the set was
        derived from). Not interpreted by the algorithms.
    """

    set_id: SetId
    benefit: frozenset[ElementId]
    cost: Cost
    label: Hashable = None

    def __post_init__(self) -> None:
        if self.cost < 0 or math.isnan(self.cost):
            raise ValidationError(
                f"set {self.set_id!r} has invalid cost {self.cost!r}; "
                "costs must be non-negative"
            )

    @property
    def size(self) -> int:
        """Number of elements covered — ``|Ben(s)|``."""
        return len(self.benefit)

    @property
    def gain(self) -> float:
        """``Gain(s) = |Ben(s)| / Cost(s)``; infinite for zero-cost sets."""
        if self.cost == 0:
            return math.inf if self.benefit else 0.0
        return len(self.benefit) / self.cost


class SetSystem:
    """An immutable collection of weighted sets over ``n`` elements.

    The constructor validates every set against the universe. Iteration
    yields :class:`WeightedSet` objects in id order, which doubles as the
    deterministic tie-breaking order used by all greedy algorithms.

    ``labels_sorted`` is true for :meth:`from_csr` systems, whose set ids
    follow the label part of each canonical tie-break key
    (:func:`repro.core.greedy_common.canonical_key`); the keys then rank
    exactly like the ids.
    """

    def __init__(
        self,
        n_elements: int,
        sets: Sequence[WeightedSet],
        strict: bool = False,
    ) -> None:
        sets = tuple(sets)
        _check_universe(n_elements)
        for expected_id, ws in enumerate(sets):
            if ws.set_id != expected_id:
                raise ValidationError(
                    "set ids must be dense and ordered; expected "
                    f"{expected_id}, got {ws.set_id}"
                )
        self._init(
            n_elements,
            *_benefits_csr(n_elements, [ws.benefit for ws in sets]),
            np.fromiter(
                (ws.cost for ws in sets), dtype=np.float64, count=len(sets)
            ),
            label_of=lambda set_id: sets[set_id].label,
            labels_sorted=False,
        )
        self._sets = sets
        if strict:
            self.validate_strict()

    def _init(
        self, n_elements, indptr, indices, costs, label_of, labels_sorted
    ) -> None:
        self._n = n_elements
        for array in (indptr, indices, costs):
            array.flags.writeable = False
        self._indptr, self._indices, self._costs = indptr, indices, costs
        self._label_of: Callable[[SetId], Hashable] | None = label_of
        self.labels_sorted = labels_sorted
        # Lazy: the per-set objects (see sets) and the sorted costs (see
        # cheapest_costs).
        self._sets: tuple[WeightedSet, ...] | None = None
        self._sorted_costs: tuple[Cost, ...] | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_iterables(
        cls,
        n_elements: int,
        benefits: Sequence[Iterable[ElementId]],
        costs: Sequence[Cost],
        labels: Sequence[Hashable] | None = None,
        strict: bool = False,
    ) -> "SetSystem":
        """Build a system from parallel sequences of benefits and costs.

        A benefit may list its elements in any order and more than once;
        the CSR keeps each set's elements ascending and distinct. The
        labels are kept as given, and the :class:`WeightedSet` tuple is
        built on the first :attr:`sets` read, as for :meth:`from_csr`
        systems. Validates what the per-set constructor does: costs
        non-negative and not NaN, elements integers inside the universe
        (a nested list or a fractional number is not an element).
        """
        if len(benefits) != len(costs):
            raise ValidationError(
                f"got {len(benefits)} benefit sets but {len(costs)} costs"
            )
        if labels is not None and len(labels) != len(benefits):
            raise ValidationError(
                f"got {len(benefits)} benefit sets but {len(labels)} labels"
            )
        cost_array = np.fromiter(
            map(float, costs), dtype=np.float64, count=len(costs)
        )
        _check_costs(cost_array)
        _check_universe(n_elements)
        labels = None if labels is None else list(labels)
        system = cls.__new__(cls)
        system._init(
            n_elements, *_benefits_csr(n_elements, benefits), cost_array,
            label_of=None if labels is None else labels.__getitem__,
            labels_sorted=False,
        )
        if strict:
            system.validate_strict()
        return system

    @classmethod
    def from_mapping(
        cls,
        n_elements: int,
        sets: Mapping[Hashable, tuple[Iterable[ElementId], Cost]],
    ) -> "SetSystem":
        """Build a system from ``{label: (benefit, cost)}``.

        Labels are sorted by ``repr`` to fix the set-id order, making
        construction deterministic regardless of mapping order.
        """
        ordered = sorted(sets.items(), key=lambda item: repr(item[0]))
        benefits = [ben for _, (ben, _) in ordered]
        costs = [cost for _, (_, cost) in ordered]
        labels = [label for label, _ in ordered]
        return cls.from_iterables(n_elements, benefits, costs, labels=labels)

    @classmethod
    def from_csr(
        cls,
        n_elements: int,
        indptr,
        indices,
        costs,
        label_of: Callable[[SetId], Hashable] | None = None,
        strict: bool = False,
    ) -> "SetSystem":
        """Build a system from CSR arrays without a per-set object.

        Set ``s`` covers ``indices[indptr[s]:indptr[s + 1]]`` (strictly
        ascending) at cost ``costs[s]``; ``label_of(s)`` decodes its
        label when one is read. Set ids must follow the labels' tie-break
        order: the ``sort_key()`` of each label (its ``repr`` for labels
        without one) never decreases with the id, so the ids rank the
        canonical keys (``labels_sorted``). The pattern enumeration
        emits its patterns in that order.

        Arrays of the right dtype are kept, not copied, and made
        read-only. Validates what the per-set constructor does —
        elements inside the universe, costs non-negative and not NaN,
        ids dense (implied by the layout) — plus the CSR shape.
        """
        _check_universe(n_elements)
        system = cls.__new__(cls)
        system._init(
            n_elements,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(costs, dtype=np.float64),
            label_of=label_of,
            labels_sorted=True,
        )
        system._validate_csr()
        if strict:
            system.validate_strict()
        return system

    def subsystem(self, set_ids) -> "SetSystem":
        """The system of the sets ``set_ids`` (ascending, distinct),
        renumbered ``0 ..`` in that order.

        Labels are read through this system's label decoder, and
        ``labels_sorted`` carries over: a subsequence of sorted ids
        stays sorted. The new system holds no reference to this one.
        """
        ids = np.asarray(set_ids, dtype=np.int64)
        sizes = np.diff(self._indptr)
        chosen = np.zeros(self.n_sets, dtype=bool)
        chosen[ids] = True
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes[ids], out=indptr[1:])
        parent_label_of = self._label_of
        system = SetSystem.__new__(SetSystem)
        system._init(
            self._n,
            indptr,
            self._indices[np.repeat(chosen, sizes)],
            self._costs[ids],
            label_of=(
                None if parent_label_of is None
                else lambda set_id: parent_label_of(int(ids[set_id]))
            ),
            labels_sorted=self.labels_sorted,
        )
        return system

    def validate_strict(self) -> "SetSystem":
        """Reject inputs that are legal in the permissive model but almost
        always bugs in a production pipeline.

        The base constructor already rejects NaN and negative costs (see
        :class:`WeightedSet`); strict mode additionally rejects:

        * an **empty element universe** — a coverage target over nothing
          is meaningless and silently makes every solution "feasible";
        * a system with **no candidate sets**;
        * **non-finite costs** — ``inf`` is a supported sentinel for
          "never pick this set" in the research workflows, but in a
          serving pipeline it is almost always an upstream aggregation
          bug about to propagate garbage into the greedy loops.

        Returns ``self`` so calls chain; raises
        :class:`~repro.errors.ValidationError` otherwise. Opt in via
        ``SetSystem(..., strict=True)``, ``from_iterables(...,
        strict=True)``, or an explicit call (used by
        :func:`repro.resilience.resilient_solve`'s ``strict`` flag).
        """
        if self._n == 0:
            raise ValidationError(
                "strict validation: empty element universe (n_elements=0); "
                "a coverage target over nothing is meaningless"
            )
        if not self.n_sets:
            raise ValidationError(
                "strict validation: the system has no candidate sets"
            )
        infinite = np.nonzero(~np.isfinite(self._costs))[0]
        if infinite.size:
            set_id = int(infinite[0])
            raise ValidationError(
                f"strict validation: set {set_id} "
                f"(label={self.label_of(set_id)!r}) has non-finite "
                f"cost {float(self._costs[set_id])!r}"
            )
        return self

    def _validate_csr(self) -> None:
        indptr, indices, costs = self._indptr, self._indices, self._costs
        m = len(costs)
        if (
            indptr.ndim != 1 or len(indptr) != m + 1 or indptr[0] != 0
            or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any()
        ):
            raise ValidationError(
                f"CSR indptr must rise from 0 to {len(indices)} over "
                f"{m} sets"
            )
        outside = np.nonzero((indices < 0) | (indices >= self._n))[0]
        if outside.size:
            at = int(outside[0])
            raise ValidationError(
                f"set {self._set_of(at)} covers element {int(indices[at])!r} "
                f"outside universe [0, {self._n})"
            )
        unsorted = np.nonzero(np.diff(indices) <= 0)[0] + 1
        unsorted = unsorted[~np.isin(unsorted, indptr)]
        if unsorted.size:
            raise ValidationError(
                f"set {self._set_of(int(unsorted[0]))} lists its elements "
                "out of order or twice"
            )
        _check_costs(costs)

    def _set_of(self, position: int) -> int:
        """The set whose CSR slice holds ``indices[position]``."""
        return int(np.searchsorted(self._indptr, position, side="right")) - 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        """Size of the universe — ``|T|`` in the paper."""
        return self._n

    @property
    def n_sets(self) -> int:
        """Number of candidate sets."""
        return len(self._costs)

    @property
    def n_pairs(self) -> int:
        """``sum |Ben(s)|`` over all sets — the CSR's ``indptr[-1]``."""
        return int(self._indptr[-1])

    @property
    def sets(self) -> tuple[WeightedSet, ...]:
        """All candidate sets in id order.

        A :meth:`from_csr` or :meth:`from_iterables` system creates them
        here, once.
        """
        if self._sets is None:
            elements = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._sets = tuple(
                WeightedSet(
                    set_id=set_id,
                    benefit=frozenset(elements[start:end]),
                    cost=cost,
                    label=self.label_of(set_id),
                )
                for set_id, (start, end, cost) in enumerate(
                    zip(bounds, bounds[1:], self._costs.tolist())
                )
            )
        return self._sets

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, costs)``: ``int64``, ``int64``, ``float64``.

        Set ``s`` covers ``indices[indptr[s]:indptr[s + 1]]``, ascending.
        The system's own arrays, read-only.
        """
        return self._indptr, self._indices, self._costs

    def label_of(self, set_id: SetId) -> Hashable:
        """The label of one set, without creating its :class:`WeightedSet`."""
        set_id = range(self.n_sets)[set_id]
        return None if self._label_of is None else self._label_of(set_id)

    @property
    def has_full_cover(self) -> bool:
        """Whether some single set covers the entire universe."""
        return bool((np.diff(self._indptr) == self._n).any())

    @property
    def total_cost(self) -> Cost:
        """Sum of all finite set costs (used as the CMC budget ceiling)."""
        costs = self._costs
        return sum(costs[np.isfinite(costs)].tolist())

    def __len__(self) -> int:
        return self.n_sets

    def __iter__(self) -> Iterator[WeightedSet]:
        return iter(self.sets)

    def __getitem__(self, set_id: SetId) -> WeightedSet:
        set_id = range(self.n_sets)[operator.index(set_id)]
        start, end = self._indptr[set_id], self._indptr[set_id + 1]
        return WeightedSet(
            set_id=set_id,
            benefit=frozenset(self._indices[start:end].tolist()),
            cost=float(self._costs[set_id]),
            label=self.label_of(set_id),
        )

    def __repr__(self) -> str:
        return (
            f"SetSystem(n_elements={self._n}, n_sets={self.n_sets}, "
            f"has_full_cover={self.has_full_cover})"
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def coverage_of(self, set_ids: Iterable[SetId]) -> int:
        """Number of distinct elements covered by a collection of sets.

        Uses the columnar packed layout when one is already cached (a
        packed-backend solve built it); otherwise a set union of the
        sets' slices, which on a fresh system is far cheaper than
        building a layout just to answer one coverage check.
        """
        from repro.core.packed import cached_layout

        layout = cached_layout(self)
        if layout is not None:
            return layout.coverage_of(set_ids)
        indptr, indices = self._indptr, self._indices
        return len(set().union(*(
            indices[indptr[i]:indptr[i + 1]].tolist() for i in set_ids
        )))

    def cost_of(self, set_ids: Iterable[SetId]) -> Cost:
        """Total cost of a collection of sets."""
        return sum(self._costs[list(set_ids)].tolist())

    def cheapest_costs(self, k: int) -> list[Cost]:
        """Costs of the ``k`` cheapest sets (fewer if ``m < k``).

        This seeds the CMC budget schedule (Fig. 1 line 1). The sorted
        cost list is computed once per system and sliced per call, so
        grids that run many CMC configurations against one system don't
        re-sort ``m`` costs every run.
        """
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        if self._sorted_costs is None:
            self._sorted_costs = tuple(
                np.sort(self._costs, kind="stable").tolist()
            )
        return list(self._sorted_costs[:k])

    def required_coverage(self, s_hat: float) -> int:
        """Smallest integer coverage satisfying ``>= s_hat * n``."""
        if not (0.0 <= s_hat <= 1.0):
            raise ValidationError(
                f"coverage fraction s_hat must be in [0, 1], got {s_hat}"
            )
        # Guard against float fuzz: 0.3 * 10 must require 3, not 4.
        return math.ceil(s_hat * self._n - 1e-9)


def _check_universe(n_elements: int) -> None:
    if n_elements < 0:
        raise ValidationError(f"n_elements must be >= 0, got {n_elements}")


def _check_costs(costs: np.ndarray) -> None:
    """Reject the first negative or NaN cost, as :class:`WeightedSet`."""
    bad = np.nonzero(~(costs >= 0))[0]
    if bad.size:
        set_id = int(bad[0])
        raise ValidationError(
            f"set {set_id!r} has invalid cost {float(costs[set_id])!r}; "
            "costs must be non-negative"
        )


def _benefits_csr(
    n_elements: int, benefits: Sequence[Iterable[ElementId]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of benefit iterables, each set's elements
    ascending and distinct (see ``csr``)."""
    m = len(benefits)
    try:
        sizes = np.fromiter(map(len, benefits), dtype=np.int64, count=m)
    except TypeError:  # one-shot iterables: read each once
        benefits = [list(ben) for ben in benefits]
        sizes = np.fromiter(map(len, benefits), dtype=np.int64, count=m)
    try:
        elements = np.array(list(chain.from_iterable(benefits)))
    except ValueError:  # ragged nested sequences
        elements = None
    if (
        elements is None
        or elements.ndim != 1
        or elements.dtype.kind not in "biuf"
    ):
        raise ValidationError("set elements must be integers")
    owner = np.repeat(np.arange(m, dtype=np.int64), sizes)
    outside = np.nonzero(~((elements >= 0) & (elements < n_elements)))[0]
    if outside.size:
        set_id = int(owner[outside[0]])
        # Name the first element out of range in the order a
        # ``WeightedSet`` iterates its benefit.
        element = next(
            e for e in frozenset(benefits[set_id])
            if not 0 <= e < n_elements
        )
        raise ValidationError(
            f"set {set_id} covers element {element!r} outside "
            f"universe [0, {n_elements})"
        )
    if elements.dtype.kind == "f" and (elements != np.floor(elements)).any():
        raise ValidationError("set elements must be integers")
    # Sort and dedupe (set, element) keys only when some set needs it.
    span = max(1, n_elements)
    keys = owner * span + elements.astype(np.int64)
    if (np.diff(keys) <= 0).any():
        keys = np.unique(keys)
        owner = keys // span
        sizes = np.bincount(owner, minlength=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, keys - owner * span
