"""Exact solvers for size-constrained weighted set cover.

Section VI-D of the paper compares CMC and CWSC against an optimal solution
"obtained using exhaustive search" on small samples. This module provides:

* :func:`solve_exact` — a branch-and-bound search over sets ordered by
  ascending cost, with cost and coverage pruning. Practical for up to a few
  hundred candidate sets with small ``k``.
* :func:`brute_force` — plain enumeration of all subsets up to size ``k``,
  used in tests as an independent cross-check of the branch and bound.

Both minimize total cost subject to ``coverage >= ceil(s_hat * n)`` and
``|S| <= k``, exactly as Definition 1 requires.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time

import numpy as np

from repro.core.fallbacks import greedy_partial
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import DeadlineExceeded, InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline

#: Deepest search :func:`solve_exact` starts. The recursive form of the
#: search overflowed Python's default 1 000-frame stack at about this
#: depth; an instance that needs more is beyond exhaustive search, so it
#: fails at once with a greedy partial instead of running to its limits.
MAX_DEPTH = 1000


def brute_force(
    system: SetSystem,
    k: int,
    s_hat: float,
    deadline: Deadline | None = None,
) -> CoverResult:
    """Enumerate every subset of at most ``k`` sets; return the cheapest
    feasible one.

    Exponential in ``m`` — only for cross-checking on tiny instances.
    The optional ``deadline`` is polled between subsets; on expiry the
    cheapest feasible subset found so far (or a greedy best-effort
    partial) is attached to the :class:`DeadlineExceeded`.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    required = system.required_coverage(s_hat)
    start = time.perf_counter()
    metrics = Metrics()
    ids = range(system.n_sets)
    best: tuple[float, tuple[int, ...]] | None = None
    for size in range(0, min(k, system.n_sets) + 1):
        for combo in itertools.combinations(ids, size):
            if deadline is not None and deadline.poll():
                partial = (
                    _result("brute_force", system, list(best[1]), k, s_hat, metrics)
                    if best is not None
                    else greedy_partial(system, k, s_hat)
                )
                raise DeadlineExceeded(
                    "brute_force: deadline expired mid-enumeration",
                    partial=partial,
                )
            metrics.sets_considered += 1
            cost = system.cost_of(combo)
            if best is not None and cost >= best[0]:
                continue
            if system.coverage_of(combo) >= required:
                best = (cost, combo)
    if best is None:
        raise InfeasibleError(
            f"brute_force: no subset of <= {k} sets covers {required} elements",
            partial=greedy_partial(system, k, s_hat),
        )
    metrics.runtime_seconds = time.perf_counter() - start
    cost, combo = best
    return _result("brute_force", system, list(combo), k, s_hat, metrics)


def solve_exact(
    system: SetSystem,
    k: int,
    s_hat: float,
    node_limit: int | None = None,
    deadline: Deadline | None = None,
) -> CoverResult:
    """Find an optimal solution by branch and bound.

    Sets are explored in ascending cost order. A branch is pruned when its
    cost already matches the incumbent, or when even the ``r`` largest
    remaining benefit sets cannot close the coverage gap (an optimistic,
    overlap-ignoring bound). An instance whose search would descend more
    than :data:`MAX_DEPTH` levels raises :class:`InfeasibleError` with a
    greedy partial before the first node.

    Parameters
    ----------
    node_limit:
        Optional cap on search nodes; exceeded limits raise
        :class:`InfeasibleError` with the incumbent attached to
        ``partial`` so callers can distinguish "proved optimal" from
        "ran out of budget".
    deadline:
        Optional cooperative deadline, polled inside the search; expiry
        raises :class:`~repro.errors.DeadlineExceeded` with the incumbent
        (or a greedy best-effort partial) attached.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    with (
        obs_trace.span("solve", algorithm="exact", k=k, s_hat=s_hat)
        if obs_trace.enabled()
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _solve_exact_body(
            system, k, s_hat, node_limit, deadline
        )
        if solve_span.enabled:
            solve_span.set(
                nodes=result.metrics.sets_considered,
                n_sets=result.n_sets,
                total_cost=result.total_cost,
            )
        return result


def _solve_exact_body(
    system: SetSystem,
    k: int,
    s_hat: float,
    node_limit: int | None,
    deadline: Deadline | None,
) -> CoverResult:
    required = system.required_coverage(s_hat)
    start = time.perf_counter()
    metrics = Metrics()
    # Search order: ascending cost, larger benefit, then set id; empty
    # and infinite-cost sets are useless.
    indptr, _, costs = system.csr()
    sizes = np.diff(indptr)
    useful = np.flatnonzero((sizes > 0) & np.isfinite(costs))
    ranked = useful[np.lexsort((useful, -sizes[useful], costs[useful]))]
    # A node at index i of the order sits i levels deep, and the branch
    # that excludes every set descends while the k largest remaining
    # benefits still reach the target.
    if required and np.sort(sizes[ranked[MAX_DEPTH:]])[-k:].sum() >= required:
        raise InfeasibleError(
            f"solve_exact: the search would descend more than {MAX_DEPTH} "
            "levels; greedy partial attached",
            partial=greedy_partial(system, k, s_hat),
        )
    order = [system[set_id] for set_id in ranked.tolist()]
    m = len(order)

    # suffix_top[i][r]: sum of the r largest benefit sizes among order[i:],
    # r <= k. Optimistic coverage bound for "r more picks from suffix i".
    suffix_top = [[0] * (k + 1)]
    top: list[int] = []  # the k largest sizes of the suffix, ascending
    for ws in reversed(order):
        bisect.insort(top, ws.size)
        del top[:-k]
        sums = list(itertools.accumulate(reversed(top), initial=0))
        suffix_top.append(sums + [sums[-1]] * (k + 1 - len(sums)))
    suffix_top.reverse()

    best_cost = math.inf
    best_choice: list[int] | None = None
    nodes = 0
    # Depth-first, include before exclude: each node pushes its exclude
    # branch, then its include branch, which is popped first.
    stack = [(0, (), set(), 0.0)]
    if required == 0:
        best_cost, best_choice, stack = 0.0, [], []

    def _incumbent_or_greedy() -> CoverResult:
        """Best-so-far as a result; greedy best-effort when empty-handed."""
        if best_choice is not None:
            return _result("exact", system, best_choice, k, s_hat, metrics)
        return greedy_partial(system, k, s_hat)

    while stack:
        index, chosen, covered, cost = stack.pop()
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            metrics.runtime_seconds = time.perf_counter() - start
            raise InfeasibleError(
                f"solve_exact: node limit {node_limit} exceeded "
                f"({'incumbent attached' if best_choice is not None else 'greedy partial attached'})",
                partial=_incumbent_or_greedy(),
            )
        if deadline is not None and deadline.poll():
            metrics.runtime_seconds = time.perf_counter() - start
            raise DeadlineExceeded(
                f"solve_exact: deadline expired after {nodes} nodes",
                partial=_incumbent_or_greedy(),
            )
        if len(covered) >= required:
            if cost < best_cost:
                best_cost = cost
                best_choice = list(chosen)
            continue
        picks_left = k - len(chosen)
        if picks_left == 0 or index == m:
            continue
        if suffix_top[index][picks_left] < required - len(covered):
            continue
        ws = order[index]
        stack.append((index + 1, chosen, covered, cost))
        # Include order[index] only if it helps and can win.
        new_cost = cost + ws.cost
        if new_cost < best_cost and not ws.benefit <= covered:
            stack.append(
                (index + 1, chosen + (ws.set_id,), covered | ws.benefit,
                 new_cost)
            )

    metrics.sets_considered = nodes
    if best_choice is None:
        metrics.runtime_seconds = time.perf_counter() - start
        raise InfeasibleError(
            f"solve_exact: no subset of <= {k} sets covers {required} elements",
            partial=greedy_partial(system, k, s_hat),
        )
    metrics.runtime_seconds = time.perf_counter() - start
    return _result("exact", system, best_choice, k, s_hat, metrics)


def _result(
    algorithm: str,
    system: SetSystem,
    chosen: list[int],
    k: int,
    s_hat: float,
    metrics: Metrics,
) -> CoverResult:
    return make_result(
        algorithm=algorithm,
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=True,
        params={"k": k, "s_hat": s_hat},
        metrics=metrics,
    )
