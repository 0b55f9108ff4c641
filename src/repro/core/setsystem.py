"""The weighted set system that all core algorithms operate on.

A :class:`SetSystem` holds ``n`` elements (dense integers ``0 .. n-1``) and
``m`` candidate sets, each with a frozen benefit set and a non-negative
cost. This mirrors the paper's problem statement (Definition 1): the input
is a collection of elements ``T`` and a collection of weighted sets over
``T``. The paper additionally assumes a set that covers all of ``T`` exists
(for patterned inputs this is the all-wildcards pattern); we expose
:attr:`SetSystem.has_full_cover` so algorithms that rely on the assumption
can check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

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
    """

    def __init__(
        self,
        n_elements: int,
        sets: Sequence[WeightedSet],
        strict: bool = False,
    ) -> None:
        if n_elements < 0:
            raise ValidationError(f"n_elements must be >= 0, got {n_elements}")
        self._n = n_elements
        self._sets = tuple(sets)
        # Lazy caches over the immutable sets (see cheapest_costs).
        self._sorted_costs: tuple[Cost, ...] | None = None
        self._validate()
        if strict:
            self.validate_strict()

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
        """Build a system from parallel sequences of benefits and costs."""
        if len(benefits) != len(costs):
            raise ValidationError(
                f"got {len(benefits)} benefit sets but {len(costs)} costs"
            )
        if labels is not None and len(labels) != len(benefits):
            raise ValidationError(
                f"got {len(benefits)} benefit sets but {len(labels)} labels"
            )
        sets = [
            WeightedSet(
                set_id=i,
                benefit=frozenset(ben),
                cost=float(cost),
                label=labels[i] if labels is not None else None,
            )
            for i, (ben, cost) in enumerate(zip(benefits, costs))
        ]
        return cls(n_elements, sets, strict=strict)

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
        if not self._sets:
            raise ValidationError(
                "strict validation: the system has no candidate sets"
            )
        for ws in self._sets:
            if not math.isfinite(ws.cost):
                raise ValidationError(
                    f"strict validation: set {ws.set_id} "
                    f"(label={ws.label!r}) has non-finite cost {ws.cost!r}"
                )
        return self

    def _validate(self) -> None:
        for expected_id, ws in enumerate(self._sets):
            if ws.set_id != expected_id:
                raise ValidationError(
                    f"set ids must be dense and ordered; expected {expected_id}, "
                    f"got {ws.set_id}"
                )
            for element in ws.benefit:
                if not (0 <= element < self._n):
                    raise ValidationError(
                        f"set {ws.set_id} covers element {element!r} outside "
                        f"universe [0, {self._n})"
                    )

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
        return len(self._sets)

    @property
    def sets(self) -> tuple[WeightedSet, ...]:
        """All candidate sets in id order."""
        return self._sets

    @property
    def has_full_cover(self) -> bool:
        """Whether some single set covers the entire universe."""
        return any(ws.size == self._n for ws in self._sets)

    @property
    def total_cost(self) -> Cost:
        """Sum of all finite set costs (used as the CMC budget ceiling)."""
        return sum(ws.cost for ws in self._sets if math.isfinite(ws.cost))

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[WeightedSet]:
        return iter(self._sets)

    def __getitem__(self, set_id: SetId) -> WeightedSet:
        return self._sets[set_id]

    def __repr__(self) -> str:
        return (
            f"SetSystem(n_elements={self._n}, n_sets={len(self._sets)}, "
            f"has_full_cover={self.has_full_cover})"
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def coverage_of(self, set_ids: Iterable[SetId]) -> int:
        """Number of distinct elements covered by a collection of sets.

        Uses the columnar packed layout when one is already cached (a
        packed-backend solve built it); otherwise a frozenset union,
        which on a fresh system is far cheaper than building a layout
        just to answer one coverage check.
        """
        from repro.core.packed import cached_layout

        layout = cached_layout(self)
        if layout is not None:
            return layout.coverage_of(set_ids)
        sets = self._sets
        return len(frozenset().union(*(sets[i].benefit for i in set_ids)))

    def cost_of(self, set_ids: Iterable[SetId]) -> Cost:
        """Total cost of a collection of sets."""
        return sum(self._sets[set_id].cost for set_id in set_ids)

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
                sorted(ws.cost for ws in self._sets)
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
