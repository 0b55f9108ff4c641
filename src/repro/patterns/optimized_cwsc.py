"""Optimized Concise Weighted Set Cover for patterned sets — Fig. 3.

Instead of enumerating every pattern up front, the candidate set ``C``
starts with the all-wildcards pattern and grows down the lattice: a child
pattern is materialized only when *all* of its parents are candidates
(a child's marginal benefit can never exceed a parent's, so a missing
parent proves the child is below the ``rem / i`` threshold too). At the
selection step ``C`` therefore contains exactly the patterns that clear the
threshold, and — with shared tie-breaking — the optimized algorithm selects
the very same patterns as the unoptimized one (paper, end of Section V-C1);
``tests/integration/test_equivalence.py`` asserts this.

:func:`cwsc_picks` is the one copy of Fig. 3's pick loop. It runs from a
seed state (rows already covered, patterns already selected, picks left),
so :class:`repro.extensions.incremental.IncrementalCWSC` repairs a
solution with the same loop that :func:`optimized_cwsc` runs from the
all-wildcards root.

The inner loops run on raw value tuples (see
:mod:`repro.patterns.candidates`); only the returned solution is wrapped in
:class:`Pattern` objects.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Iterable, Literal

from repro.core.result import CoverResult, Metrics
from repro.errors import InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.patterns.candidates import Candidate, CandidatePool, lattice_result
from repro.patterns.costs import CostFunction, get_cost_function
from repro.patterns.index import PatternIndex, Values
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

OnInfeasible = Literal["raise", "full_cover", "partial"]

_EPS = 1e-9


def optimized_cwsc(
    table: PatternTable,
    k: int,
    s_hat: float,
    cost: "str | CostFunction" = "max",
    on_infeasible: OnInfeasible = "raise",
) -> CoverResult:
    """Run the lattice-pruned CWSC directly on a pattern table.

    Parameters
    ----------
    table:
        The record table (non-empty).
    k:
        Maximum number of patterns in the solution.
    s_hat:
        Required coverage fraction.
    cost:
        Pattern cost function (name or instance); default ``"max"``.
    on_infeasible:
        Same policies as :func:`repro.core.cwsc.cwsc`; ``"full_cover"``
        falls back to the all-wildcards pattern.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    if table.n_rows == 0:
        raise ValidationError("cannot cover an empty table")
    traced = obs_trace.enabled()
    with (
        obs_trace.span("solve", algorithm="optimized_cwsc", k=k, s_hat=s_hat)
        if traced
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _optimized_cwsc_body(
            table, k, s_hat, cost, on_infeasible, traced
        )
        if solve_span.enabled:
            solve_span.set(
                n_sets=result.n_sets,
                total_cost=result.total_cost,
                covered=result.covered,
                feasible=result.feasible,
            )
        return result


def _optimized_cwsc_body(
    table: PatternTable,
    k: int,
    s_hat: float,
    cost: "str | CostFunction",
    on_infeasible: OnInfeasible,
    traced: bool,
) -> CoverResult:
    start = time.perf_counter()
    metrics = Metrics()
    params = {
        "k": k,
        "s_hat": s_hat,
        "cost": get_cost_function(cost).name,
        "on_infeasible": on_infeasible,
    }

    with (
        obs_trace.span("preprocess", op="pattern_index")
        if traced
        else obs_trace.NULL_SPAN
    ):
        index = table.pattern_index()
        cost_fn = get_cost_function(cost).bind(table)

    selected, reached = cwsc_picks(
        index, cost_fn, metrics, s_hat * table.n_rows, k, traced=traced
    )
    if not reached and on_infeasible == "full_cover":
        all_values: Values = (ALL,) * table.n_attributes
        selected = [
            Candidate(all_values, index.all_rows, cost_fn(index.all_rows))
        ]
        reached = True
    result = lattice_result(
        "optimized_cwsc", table, selected, reached, params, metrics, start
    )
    if reached or on_infeasible == "partial":
        return result
    raise InfeasibleError(
        "optimized_cwsc: no pattern clears the per-pick benefit threshold",
        partial=result,
    )


def cwsc_picks(
    index: PatternIndex,
    cost_fn: Callable[[Iterable[int]], float],
    metrics: Metrics,
    rem: float,
    picks: int,
    covered: Iterable[int] | None = None,
    selected_values: Iterable[Values] = (),
    traced: bool = False,
) -> tuple[list[Candidate], bool]:
    """Fig. 3 lines 7-33: up to ``picks`` threshold-greedy picks.

    ``C`` starts as the all-wildcards pattern; ``covered`` rows count as
    already covered and ``selected_values`` as already selected. Each
    pick prunes ``C`` to the ``rem / i`` threshold, expands it, and takes
    the best marginal gain. Returns the picks and whether they covered
    ``rem`` more rows; the loop stops early when no candidate clears the
    threshold.
    """
    pool = CandidatePool(cost_fn, metrics, covered=covered)
    all_values: Values = (ALL,) * index.table.n_attributes
    pool.add(pool.materialize(all_values, index.all_rows))
    selected_values = set(selected_values)
    selected: list[Candidate] = []
    if rem <= _EPS:
        return selected, True

    for i in range(picks, 0, -1):
        threshold = rem / i - _EPS
        with (
            obs_trace.span("select", picks_left=i, threshold=rem / i)
            if traced
            else obs_trace.NULL_SPAN
        ) as pick_span:
            # Fig. 3 lines 8-10: drop candidates below the new threshold.
            pool.prune(lambda candidate: candidate.mben_size >= threshold)
            _expand(pool, index, selected_values, threshold)
            # Fig. 3 line 21: C holds exactly the threshold-clearing
            # patterns.
            best = pool.best_by_gain()
            if best is None:
                return selected, False
            newly = pool.select(best)
            if pick_span.enabled:
                pick_span.set(
                    pattern=str(Pattern(best.values)),
                    marginal_covered=len(newly),
                )
        selected.append(best)
        selected_values.add(best.values)
        rem -= len(newly)
        if rem <= _EPS:
            return selected, True
    # Guard: each pick covers >= rem/i, so k picks always suffice.
    return selected, False  # pragma: no cover


def _expand(
    pool: CandidatePool,
    index: PatternIndex,
    selected_values: set[Values],
    threshold: float,
) -> None:
    """Fig. 3 lines 11-20: grow ``C`` downward until no child qualifies.

    The waitlist is processed in decreasing marginal benefit (line 13);
    marginal benefits are static during expansion, so a plain heap keyed by
    ``(-|mben|, sort_key)`` realizes the argmax deterministically.
    """
    heap: list[tuple[int, tuple, Values]] = [
        (-candidate.mben_size, candidate.sort_key(), candidate.values)
        for candidate in pool
    ]
    heapq.heapify(heap)
    while heap:
        _, _, values = heapq.heappop(heap)
        candidate = pool.get(values)
        if candidate is None:  # pragma: no cover - not removed mid-phase
            continue
        # Fig. 3 line 16: only children whose parents are all in C. Since
        # |MBen| <= |Ben|, a child whose full benefit is below the
        # threshold can never qualify, so it is skipped unmaterialized.
        for _, child, child_ben in index.children_values(
            values,
            candidate.ben,
            parents_in=pool.members,
            exclude=(pool.members, selected_values),
            min_rows=threshold,
            known=pool.known,
        ):
            child_candidate = pool.materialize(child, child_ben)
            if child_candidate.mben_size >= threshold:
                pool.add(child_candidate)
                heapq.heappush(
                    heap,
                    (
                        -child_candidate.mben_size,
                        child_candidate.sort_key(),
                        child,
                    ),
                )
            else:
                pool.archive(child_candidate)

