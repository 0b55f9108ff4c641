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

import itertools
import math
import time

from repro.core.fallbacks import greedy_partial
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import DeadlineExceeded, InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline


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
    overlap-ignoring bound).

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

    # Drop useless candidates: empty benefit or infinite cost.
    order = sorted(
        (
            ws
            for ws in system.sets
            if ws.benefit and math.isfinite(ws.cost)
        ),
        key=lambda ws: (ws.cost, -ws.size, ws.set_id),
    )
    sizes = [ws.size for ws in order]
    m = len(order)

    # suffix_top[i][r]: sum of the r largest benefit sizes among order[i:],
    # r <= k. Optimistic coverage bound for "r more picks from suffix i".
    suffix_top: list[list[int]] = [[0] * (k + 1) for _ in range(m + 1)]
    top: list[int] = []  # descending sizes, length <= k
    for i in range(m - 1, -1, -1):
        size = sizes[i]
        # insert into the running top-k (small k: linear insert is fine)
        inserted = False
        for j, existing in enumerate(top):
            if size > existing:
                top.insert(j, size)
                inserted = True
                break
        if not inserted:
            top.append(size)
        del top[k:]
        running = suffix_top[i]
        acc = 0
        for r in range(1, k + 1):
            acc += top[r - 1] if r - 1 < len(top) else 0
            running[r] = acc

    best_cost = math.inf
    best_choice: list[int] | None = None
    nodes = 0

    def search(index: int, chosen: list[int], covered: set, cost: float) -> None:
        nonlocal best_cost, best_choice, nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise _NodeLimit()
        if deadline is not None and deadline.poll():
            raise _DeadlineSignal()
        if len(covered) >= required:
            if cost < best_cost:
                best_cost = cost
                best_choice = list(chosen)
            return
        picks_left = k - len(chosen)
        if picks_left == 0 or index == m:
            return
        gap = required - len(covered)
        if suffix_top[index][min(picks_left, k)] < gap:
            return
        ws = order[index]
        # Branch 1: include order[index] (only if it helps and can win).
        new_cost = cost + ws.cost
        if new_cost < best_cost and not ws.benefit <= covered:
            chosen.append(ws.set_id)
            search(index + 1, chosen, covered | ws.benefit, new_cost)
            chosen.pop()
        # Branch 2: exclude it.
        search(index + 1, chosen, covered, cost)

    def _incumbent_or_greedy() -> CoverResult:
        """Best-so-far as a result; greedy best-effort when empty-handed."""
        if best_choice is not None:
            return _result("exact", system, best_choice, k, s_hat, metrics)
        return greedy_partial(system, k, s_hat)

    try:
        if required == 0:
            best_cost, best_choice = 0.0, []
        else:
            search(0, [], set(), 0.0)
    except _NodeLimit:
        metrics.runtime_seconds = time.perf_counter() - start
        raise InfeasibleError(
            f"solve_exact: node limit {node_limit} exceeded "
            f"({'incumbent attached' if best_choice is not None else 'greedy partial attached'})",
            partial=_incumbent_or_greedy(),
        ) from None
    except _DeadlineSignal:
        metrics.runtime_seconds = time.perf_counter() - start
        raise DeadlineExceeded(
            f"solve_exact: deadline expired after {nodes} nodes",
            partial=_incumbent_or_greedy(),
        ) from None

    metrics.sets_considered = nodes
    if best_choice is None:
        metrics.runtime_seconds = time.perf_counter() - start
        raise InfeasibleError(
            f"solve_exact: no subset of <= {k} sets covers {required} elements",
            partial=greedy_partial(system, k, s_hat),
        )
    metrics.runtime_seconds = time.perf_counter() - start
    return _result("exact", system, best_choice, k, s_hat, metrics)


class _NodeLimit(Exception):
    """Internal signal: branch-and-bound exceeded its node budget."""


class _DeadlineSignal(Exception):
    """Internal signal: the cooperative deadline expired mid-search."""


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
