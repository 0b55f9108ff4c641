"""Greedy budgeted maximum coverage [Khuller, Moss, Naor 1999].

Covers the most elements subject to a budget on total weight, greedily by
marginal gain. Section III of the paper explains why stopping this
heuristic after ``O(k)`` sets does *not* solve size-constrained weighted
set cover: on the adversarial instance of
:func:`repro.datasets.adversarial.bmc_adversarial_system` its coverage is
arbitrarily small compared to the optimum. We implement the plain greedy
rule (marginal benefit per unit cost, skipping sets that would exceed the
budget); the optional ``max_sets`` truncation realizes the paper's "stop
after ck sets" adaptation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.marginal import make_tracker
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError


def budgeted_max_coverage(
    system: SetSystem,
    budget: float,
    max_sets: int | None = None,
) -> CoverResult:
    """Run greedy budgeted maximum coverage.

    Parameters
    ----------
    system:
        The weighted set system.
    budget:
        Upper bound on the total cost of selected sets.
    max_sets:
        Optional cap on the number of selections (the paper's "allowed to
        pick ck sets" adaptation).

    Notes
    -----
    ``feasible`` is always ``True``: the problem has no coverage target,
    only a budget, and the empty solution is valid.
    """
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    if max_sets is not None and max_sets < 1:
        raise ValidationError(f"max_sets must be >= 1, got {max_sets}")
    start = time.perf_counter()
    metrics = Metrics()
    params = {"budget": budget, "max_sets": max_sets}
    tracker = make_tracker(system, metrics=metrics)
    spent = 0.0
    chosen: list[int] = []

    while max_sets is None or len(chosen) < max_sets:
        affordable = np.nonzero(spent + tracker.costs <= budget)[0]
        best_id = tracker.best_gain_candidate(0, affordable)
        if best_id is None:
            break
        spent += float(tracker.costs[best_id])
        tracker.select(best_id)
        chosen.append(best_id)

    metrics.runtime_seconds = time.perf_counter() - start
    return make_result(
        algorithm="budgeted_max_coverage",
        chosen=chosen,
        labels=[system.label_of(i) for i in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=True,
        params=params,
        metrics=metrics,
    )
