"""Greedy partial maximum coverage — the Section VI-C baseline.

The classic ``(1 - 1/e)`` heuristic [Hochbaum 1997]: pick the ``k`` sets
with the largest marginal benefit, ignoring cost entirely. Section VI-C
reports that on LBL it returns solutions roughly 3-10x costlier than CWSC
or CMC, regardless of the coverage fraction — it optimizes coverage and
size, but not cost.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.marginal import make_tracker
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError

_EPS = 1e-9


def max_coverage(
    system: SetSystem,
    k: int,
    s_hat: float | None = None,
) -> CoverResult:
    """Run greedy maximum coverage with at most ``k`` sets.

    Parameters
    ----------
    system:
        The weighted set system (costs are ignored during selection but
        reported in the result).
    k:
        Number of sets to select.
    s_hat:
        Optional early-stop coverage fraction (the *partial* variant):
        selection stops once ``s_hat * n`` elements are covered.
        ``feasible`` in the result reflects whether that target was met;
        without a target the result is always feasible.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if s_hat is not None and not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    start = time.perf_counter()
    metrics = Metrics()
    params = {"k": k, "s_hat": s_hat}
    tracker = make_tracker(system, metrics=metrics)
    target = s_hat * system.n_elements if s_hat is not None else None
    chosen: list[int] = []
    all_ids = np.arange(system.n_sets)

    for _ in range(k):
        if target is not None and tracker.covered_count >= target - _EPS:
            break
        best_id = tracker.best_benefit_in(all_ids)
        if best_id is None:
            break
        tracker.select(best_id)
        chosen.append(best_id)

    metrics.runtime_seconds = time.perf_counter() - start
    feasible = (
        target is None or tracker.covered_count >= target - _EPS
    )
    return make_result(
        algorithm="max_coverage",
        chosen=chosen,
        labels=[system.label_of(i) for i in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=feasible,
        params=params,
        metrics=metrics,
    )
