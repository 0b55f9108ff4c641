"""Incremental size-constrained weighted set cover (paper Section VII).

The paper names, as future work, "an incremental version ... in which the
solution must be continuously maintained as new elements arrive". This
module implements a practical maintainer for the patterned case:

* New records can only *shrink* the coverage fraction of the current
  pattern collection (patterns keep matching what they matched) and can
  change pattern costs (a new record can raise a ``max``-cost).
* On each batch arrival the maintainer re-evaluates the solution on the
  grown table. While the coverage fraction still meets ``s_hat`` the
  solution is kept (a cheap O(batch) update). When it drops below:

  - with spare capacity (``|S| < k``) it runs a *repair*: Fig. 3's pick
    loop (:func:`repro.patterns.optimized_cwsc.cwsc_picks`) over the
    remaining picks, seeded with the rows the current patterns already
    cover;
  - otherwise, or when the repair dead-ends, it *recomputes* from scratch
    with :func:`repro.patterns.optimized_cwsc`.

The maintainer tracks how often each path fired, so experiments can report
maintenance cost against recompute-always.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.result import CoverResult, Metrics, make_result
from repro.errors import ValidationError
from repro.patterns.costs import CostFunction, get_cost_function
from repro.patterns.index import PatternIndex
from repro.patterns.optimized_cwsc import cwsc_picks, optimized_cwsc
from repro.patterns.pattern import Pattern
from repro.patterns.table import PatternTable

_EPS = 1e-9


@dataclass
class MaintenanceStats:
    """How the maintainer reacted to arrivals."""

    batches: int = 0
    kept: int = 0
    repaired: int = 0
    recomputed: int = 0
    repair_failures: int = 0
    metrics: Metrics = field(default_factory=Metrics)


class IncrementalCWSC:
    """Maintains a CWSC solution while records arrive in batches.

    Parameters
    ----------
    table:
        The initial (non-empty) record table.
    k:
        Maximum number of patterns in the maintained solution.
    s_hat:
        Coverage fraction the maintained solution must always satisfy.
    cost:
        Pattern cost function (name or instance).
    """

    def __init__(
        self,
        table: PatternTable,
        k: int,
        s_hat: float,
        cost: "str | CostFunction" = "max",
    ) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if not (0.0 <= s_hat <= 1.0):
            raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
        self._k = k
        self._s_hat = s_hat
        self._cost_obj = get_cost_function(cost)
        self._table = table
        self._stats = MaintenanceStats()
        self._patterns: list[Pattern] = []
        self._recompute()

    # ------------------------------------------------------------------
    @property
    def table(self) -> PatternTable:
        """The current (grown) table."""
        return self._table

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        """The maintained solution."""
        return tuple(self._patterns)

    @property
    def stats(self) -> MaintenanceStats:
        return self._stats

    def current_result(self) -> CoverResult:
        """The maintained solution evaluated on the current table."""
        return self._result(self._table.pattern_index(), [])

    def _result(
        self, index: PatternIndex, benefits: list[frozenset[int]]
    ) -> CoverResult:
        """The result of the maintained patterns; ``benefits`` holds the
        rows of a prefix of them, computed by the caller already."""
        benefits = benefits + [
            index.benefit(pattern)
            for pattern in self._patterns[len(benefits):]
        ]
        cost_fn = self._cost_obj.bind(self._table)
        covered: set[int] = set()
        total_cost = 0.0
        for ben in benefits:
            covered |= ben
            total_cost += cost_fn(ben)
        return make_result(
            algorithm="incremental_cwsc",
            chosen=list(range(len(self._patterns))),
            labels=list(self._patterns),
            total_cost=total_cost,
            covered=len(covered),
            n_elements=self._table.n_rows,
            feasible=len(covered) >= self._s_hat * self._table.n_rows - _EPS,
            params={"k": self._k, "s_hat": self._s_hat},
            metrics=self._stats.metrics,
        )

    # ------------------------------------------------------------------
    def add_records(self, batch: PatternTable) -> CoverResult:
        """Absorb a batch of new records and restore feasibility.

        Returns the maintained solution on the grown table.
        """
        start = time.perf_counter()
        self._table = self._table.extend(batch)
        self._stats.batches += 1

        index = self._table.pattern_index()
        benefits = [index.benefit(pattern) for pattern in self._patterns]
        covered: set[int] = set().union(*benefits)
        required = self._s_hat * self._table.n_rows
        if len(covered) >= required - _EPS:
            self._stats.kept += 1
        elif len(self._patterns) < self._k and self._repair(index, covered):
            self._stats.repaired += 1
        else:
            self._recompute()
            self._stats.recomputed += 1
            benefits = []
        self._stats.metrics.runtime_seconds += time.perf_counter() - start
        return self._result(index, benefits)

    # ------------------------------------------------------------------
    def _repair(self, index: PatternIndex, covered: set[int]) -> bool:
        """Extend the current solution with up to ``k - |S|`` patterns.

        Runs the CWSC threshold loop seeded with the already-covered rows.
        Returns False (leaving the solution untouched) if the thresholded
        selection dead-ends, in which case the caller recomputes.
        """
        picks, reached = cwsc_picks(
            index,
            self._cost_obj.bind(self._table),
            self._stats.metrics,
            rem=self._s_hat * self._table.n_rows - len(covered),
            picks=self._k - len(self._patterns),
            covered=covered,
            selected_values=[pattern.values for pattern in self._patterns],
        )
        if not reached:
            self._stats.repair_failures += 1
            return False
        self._patterns.extend(Pattern(pick.values) for pick in picks)
        return True

    def _recompute(self) -> None:
        """Full optimized-CWSC run on the current table."""
        result = optimized_cwsc(
            self._table,
            self._k,
            self._s_hat,
            cost=self._cost_obj,
            on_infeasible="full_cover",
        )
        self._patterns = list(result.labels)
        self._stats.metrics = self._stats.metrics.merge(result.metrics)
