"""Candidate-pattern pool shared by the optimized algorithms (Section V-C).

The optimized CWSC and CMC never materialize the full pattern collection;
they maintain a small pool of *candidate* patterns, each carrying its
static benefit set and cost plus a mutable marginal-benefit set. The pool
implements the two update loops both figures share: materializing a child
pattern discovered via the lattice, and subtracting a selection's newly
covered rows from every remaining candidate (Fig. 3 lines 27–30, Fig. 4
lines 26–29 — candidates whose marginal benefit empties are evicted).
It also answers CWSC's argmax (:meth:`CandidatePool.best_by_gain`), and
:func:`lattice_result` turns either algorithm's picks into a
:class:`~repro.core.result.CoverResult`.

For speed the pool works on raw pattern *value tuples* (with the
:data:`~repro.patterns.pattern.ALL` sentinel), not :class:`Pattern`
objects; callers wrap the final solution in patterns. Tie-breaking uses
:func:`repro.patterns.pattern.values_sort_key`, which orders value tuples
exactly like :meth:`Pattern.sort_key` orders patterns — this is what makes
the optimized and unoptimized algorithms select identical sets.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

from repro.core.result import CoverResult, Metrics, make_result
from repro.patterns.index import LatticeSet, PatternData, Values
from repro.patterns.pattern import Pattern, values_sort_key
from repro.patterns.table import PatternTable


class Candidate:
    """One candidate pattern with static benefit/cost and live marginal."""

    __slots__ = ("values", "ben", "cost", "mben", "_sort_key")

    def __init__(
        self,
        values: Values,
        ben: Iterable[int],
        cost: float,
        sort_key: tuple | None = None,
    ) -> None:
        self.values = values
        self.ben = tuple(ben)
        self.cost = cost
        self.mben: set[int] = set()
        self._sort_key = sort_key

    @property
    def mben_size(self) -> int:
        return len(self.mben)

    @property
    def mgain(self) -> float:
        if self.cost == 0:
            return float("inf") if self.mben else 0.0
        return len(self.mben) / self.cost

    def sort_key(self) -> tuple:
        """Cached :func:`values_sort_key` of this candidate's values."""
        if self._sort_key is None:
            self._sort_key = values_sort_key(self.values)
        return self._sort_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Candidate({self.values!r}, |ben|={len(self.ben)}, "
            f"cost={self.cost:g}, |mben|={len(self.mben)})"
        )


class CandidatePool:
    """The live candidate collection ``C`` plus the covered-row set.

    Parameters
    ----------
    cost_fn:
        Bound cost function ``ben_rows -> cost``
        (see :meth:`repro.patterns.costs.CostFunction.bind`).
    metrics:
        Shared metrics; every materialization counts one "pattern
        considered" (the Fig. 6 measure).
    covered:
        Rows to treat as already covered (incremental repair).
    """

    def __init__(
        self,
        cost_fn: Callable[[Iterable[int]], float],
        metrics: Metrics,
        covered: Iterable[int] | None = None,
        known: dict[Values, PatternData] | None = None,
    ) -> None:
        self._cost_fn = cost_fn
        self._metrics = metrics
        self._candidates: dict[Values, Candidate] = {}
        self._members = LatticeSet()
        self._archive: dict[Values, Candidate] = {}
        self._covered: set[int] = set(covered) if covered is not None else set()
        # Static pattern data can outlive the pool: CMC shares this dict
        # across its budget rounds (each round uses a fresh pool).
        self._known = known if known is not None else {}

    # ------------------------------------------------------------------
    @property
    def covered(self) -> set[int]:
        """Rows covered by all selections so far (do not mutate)."""
        return self._covered

    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, values: Values) -> bool:
        return values in self._candidates

    @property
    def known(self) -> dict[Values, PatternData]:
        """Every pattern this pool (and any pool sharing its dict) has
        materialized, for :meth:`~repro.patterns.index.PatternIndex.
        children_values` to reuse their rows (do not mutate)."""
        return self._known

    @property
    def members(self) -> LatticeSet:
        """Live view of the values in ``C``, with the slot index that
        :meth:`~repro.patterns.index.PatternIndex.children_values` reads
        for Fig. 3's all-parents rule (do not mutate)."""
        return self._members

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._candidates.values())

    def get(self, values: Values) -> Candidate | None:
        return self._candidates.get(values)

    # ------------------------------------------------------------------
    def materialize(self, values: Values, ben: Iterable[int]) -> Candidate:
        """Build a candidate (benefit, cost, marginal) without adding it.

        Fresh materializations count toward ``sets_considered`` — this is
        exactly the work the optimizations exist to avoid, so it is the
        quantity Fig. 6 plots. Candidates previously pruned from the pool
        are rehydrated from the archive instead of recomputing their cost
        and benefit (their stale marginal only shrinks, so refreshing it
        against the covered set is exact). A pattern already in ``known``
        reuses its rows, cost and sort key; it still counts, because the
        round that meets it again pays for it in the paper's algorithm.
        ``ben`` lists the rows in ascending order: ``sum``, ``mean`` and
        the lp-norm costs round in the order they see the rows.
        """
        archived = self._archive.pop(values, None)
        covered = self._covered
        if archived is not None:
            archived.mben.difference_update(covered)
            return archived
        self._metrics.sets_considered += 1
        data = self._known.get(values)
        if data is None:
            ben = tuple(ben)
            data = self._known[values] = PatternData(
                values, ben, self._cost_fn(ben), values_sort_key(values)
            )
        candidate = Candidate(
            values,
            data.rows,
            data.cost,
            data.sort_key if data.values is values else None,
        )
        candidate.mben = set(candidate.ben)
        if covered:
            candidate.mben.difference_update(covered)
        return candidate

    def add(self, candidate: Candidate) -> None:
        self._candidates[candidate.values] = candidate
        self._members.add(candidate.values)

    def archive(self, candidate: Candidate) -> None:
        """Stash a materialized-but-unqualified candidate for cheap reuse."""
        self._archive[candidate.values] = candidate

    def remove(self, values: Values) -> Candidate | None:
        self._members.discard(values)
        return self._candidates.pop(values, None)

    def _evict(self, values: Values) -> None:
        self._members.discard(values)
        self._archive[values] = self._candidates.pop(values)

    def prune(self, predicate: Callable[[Candidate], bool]) -> None:
        """Archive every candidate for which ``predicate`` is false.

        Archived candidates leave ``C`` (they no longer participate in
        selection or parent checks) but can be rehydrated cheaply if a
        later, lower threshold re-qualifies them.
        """
        doomed = [
            values
            for values, candidate in self._candidates.items()
            if not predicate(candidate)
        ]
        for values in doomed:
            self._evict(values)

    # ------------------------------------------------------------------
    def select(self, candidate: Candidate) -> set[int]:
        """Move a candidate into the solution; returns its newly covered rows.

        Subtracts the newly covered rows from every other candidate's
        marginal benefit and evicts candidates that become useless.
        """
        self.remove(candidate.values)
        self._metrics.selections += 1
        newly = set(candidate.mben)
        self._covered |= newly
        emptied: list[Values] = []
        for other in self._candidates.values():
            before = len(other.mben)
            other.mben -= newly
            if len(other.mben) != before:
                self._metrics.marginal_updates += 1
            if not other.mben:
                emptied.append(other.values)
        for values in emptied:
            # Evicted-but-materialized candidates go to the archive so a
            # later expansion round reuses them instead of recomputing
            # (and re-counting) their benefit and cost.
            self._evict(values)
        return newly

    # ------------------------------------------------------------------
    def best_by_gain(self) -> Candidate | None:
        """Candidate maximizing marginal gain — CWSC's selection rule
        (Fig. 2/3); the caller prunes ``C`` to the threshold first.

        Ties: larger ``|mben|``, then lower cost, then smaller sort key —
        the same order as :func:`repro.core.greedy_common.gain_key` with
        pattern labels.
        """
        best: Candidate | None = None
        best_key = None
        for candidate in self._candidates.values():
            key = (candidate.mgain, candidate.mben_size, -candidate.cost)
            if best_key is None or key > best_key or (
                key == best_key
                and candidate.sort_key() < best.sort_key()
            ):
                best = candidate
                best_key = key
        return best


def lattice_result(
    algorithm: str,
    table: PatternTable,
    selected: list[Candidate],
    feasible: bool,
    params: dict,
    metrics: Metrics,
    start: float,
) -> CoverResult:
    """The :class:`CoverResult` of a lattice solver's picks, timed from
    ``start`` (a :func:`time.perf_counter` reading)."""
    metrics.runtime_seconds = time.perf_counter() - start
    covered: set[int] = set()
    for candidate in selected:
        covered.update(candidate.ben)
    return make_result(
        algorithm=algorithm,
        chosen=list(range(len(selected))),
        labels=[Pattern(candidate.values) for candidate in selected],
        total_cost=sum(candidate.cost for candidate in selected),
        covered=len(covered),
        n_elements=table.n_rows,
        feasible=feasible,
        params=params,
        metrics=metrics,
    )
