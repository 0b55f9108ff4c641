"""Greedy partial weighted set cover — the paper's Table VI baseline.

The classic heuristic: repeatedly pick the set with the highest marginal
gain (newly covered elements per unit cost) until the coverage target is
met. It optimizes cost and coverage but has *no size constraint*, which is
exactly the limitation Table VI demonstrates: as the coverage fraction
grows, the number of selected patterns far exceeds any reasonable ``k``.

Each pick is the tracker's ``best_gain_candidate`` with no threshold —
CWSC's selection step without the ``rem / i`` floor — so ties break as
:func:`repro.core.greedy_common.gain_key` orders them: gain, then
marginal size, then lower cost, then the canonical label key.
"""

from __future__ import annotations

import time

from repro.core.marginal import make_tracker
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import InfeasibleError, ValidationError

_EPS = 1e-9


def weighted_set_cover(
    system: SetSystem,
    s_hat: float,
    max_sets: int | None = None,
) -> CoverResult:
    """Run the greedy partial weighted set cover heuristic.

    Parameters
    ----------
    system:
        The weighted set system.
    s_hat:
        Required coverage fraction.
    max_sets:
        Optional hard stop on the number of selections (not part of the
        classic heuristic; exposed so experiments can truncate it). With
        the default ``None`` the heuristic runs until the target is met.

    Raises
    ------
    InfeasibleError
        If the union of all sets cannot reach the target (or the
        ``max_sets`` truncation fired first).
    """
    if not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    if max_sets is not None and max_sets < 1:
        raise ValidationError(f"max_sets must be >= 1, got {max_sets}")
    start = time.perf_counter()
    metrics = Metrics()
    params = {"s_hat": s_hat, "max_sets": max_sets}
    tracker = make_tracker(system, metrics=metrics)
    rem = s_hat * system.n_elements
    chosen: list[int] = []

    while rem > _EPS:
        best_id = tracker.best_gain_candidate(0)
        if best_id is None or (max_sets is not None and len(chosen) >= max_sets):
            metrics.runtime_seconds = time.perf_counter() - start
            partial = make_result(
                algorithm="weighted_set_cover",
                chosen=chosen,
                labels=[system.label_of(i) for i in chosen],
                total_cost=system.cost_of(chosen),
                covered=system.coverage_of(chosen),
                n_elements=system.n_elements,
                feasible=False,
                params=params,
                metrics=metrics,
            )
            raise InfeasibleError(
                "weighted_set_cover: coverage target unreachable "
                f"({rem:.2f} elements short)",
                partial=partial,
            )
        rem -= tracker.select(best_id)
        chosen.append(best_id)

    metrics.runtime_seconds = time.perf_counter() - start
    return make_result(
        algorithm="weighted_set_cover",
        chosen=chosen,
        labels=[system.label_of(i) for i in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=True,
        params=params,
        metrics=metrics,
    )
