"""Last-resort solutions: the universal set and greedy best-effort partials.

The paper assumes a set covering all of ``T`` exists (for patterned inputs
it is the all-wildcards pattern), which means *some* feasible answer always
exists. This module turns that assumption into runnable fallbacks:

* :func:`universal_result` — the cheapest single full-coverage set, the
  paper's "default solution". Feasible for any ``k >= 1`` and any
  ``s_hat``.
* :func:`greedy_partial` — up to ``k`` sets chosen greedily by marginal
  gain, with no feasibility requirement. Used to populate
  ``InfeasibleError.partial`` / ``DeadlineExceeded.partial`` when a solver
  gives up before finding anything better, so callers always get the best
  cheap answer available instead of ``None``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.marginal import make_tracker
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import InfeasibleError, ValidationError

__all__ = ["greedy_partial", "universal_result"]


def universal_result(system: SetSystem, k: int, s_hat: float) -> CoverResult:
    """The paper's default solution: the cheapest full-coverage set.

    Raises
    ------
    InfeasibleError
        If no finite-cost set covers the whole universe (the paper's
        standing assumption does not hold for this system). The attached
        ``partial`` is a greedy best-effort solution.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    start = time.perf_counter()
    full = [
        ws
        for ws in system.sets
        if ws.size == system.n_elements and math.isfinite(ws.cost)
    ]
    if not full:
        raise InfeasibleError(
            "universal fallback: no finite-cost set covers the whole "
            "universe",
            partial=greedy_partial(system, k, s_hat),
        )
    cheapest = min(full, key=lambda ws: (ws.cost, ws.set_id))
    # Every solver populates runtime_seconds itself — including this
    # trivial one, so downstream aggregation never sees a 0.0 run time.
    metrics = Metrics(
        selections=1,
        runtime_seconds=time.perf_counter() - start,
    )
    return make_result(
        algorithm="universal",
        chosen=[cheapest.set_id],
        labels=[cheapest.label],
        total_cost=cheapest.cost,
        covered=system.n_elements,
        n_elements=system.n_elements,
        feasible=True,
        params={"k": k, "s_hat": s_hat},
        metrics=metrics,
    )


def greedy_partial(system: SetSystem, k: int, s_hat: float) -> CoverResult:
    """Best-effort cover: up to ``k`` sets greedily by marginal gain.

    Never raises for valid parameters; the result's ``feasible`` flag
    reports whether the greedy selection happened to reach the coverage
    target. Tie-breaking matches the other greedy algorithms so partials
    are deterministic.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    start = time.perf_counter()
    metrics = Metrics()
    required = system.required_coverage(s_hat)
    tracker = make_tracker(system, metrics=metrics)
    finite_ids = np.nonzero(np.isfinite(tracker.costs))[0]
    chosen: list[int] = []
    while len(chosen) < k and tracker.covered_count < required:
        best_id = tracker.best_gain_candidate(0, finite_ids)
        if best_id is None:
            break
        tracker.select(best_id)
        chosen.append(best_id)
    metrics.runtime_seconds = time.perf_counter() - start
    covered = system.coverage_of(chosen)
    return make_result(
        algorithm="greedy_partial",
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=system.cost_of(chosen),
        covered=covered,
        n_elements=system.n_elements,
        feasible=covered >= required,
        params={"k": k, "s_hat": s_hat},
        metrics=metrics,
    )
