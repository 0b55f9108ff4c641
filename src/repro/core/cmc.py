"""Cheap Max Coverage (CMC) — Fig. 1 of the paper.

CMC guesses the optimal cost ``B``, partitions affordable sets into cost
levels, and runs the greedy maximum-coverage heuristic with a per-level
quota (at most ``2^i`` sets from level ``i``, at most ``k`` from the
cheapest level). If the guess cannot reach the (discounted) coverage target
``(1 - 1/e) * s_hat * n``, the budget grows by ``1 + b`` and the round
restarts. Theorem 4: at most ``5k`` sets, cost within
``(1 + b)(2 ceil(log2 k) + 1)`` of optimal, coverage at least
``(1 - 1/e) * s_hat * n``.

Each per-level pick is the tracker's ``best_benefit_in`` over that level's
set ids (assigned once per round by :func:`repro.core.packed.assign_levels`):
larger marginal benefit, then lower cost, then the canonical label key, as
:func:`repro.core.greedy_common.benefit_key` orders them.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Literal

import numpy as np

from repro._typing import Cost
from repro.core.budget import LevelScheme, budget_schedule, standard_levels
from repro.core.marginal import (
    TrackerBackend,
    make_tracker,
    resolve_backend,
)
from repro.core.packed import assign_levels
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import DeadlineExceeded, InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience import faults
from repro.resilience.deadline import Deadline

OnInfeasible = Literal["raise", "partial"]

#: Fraction of the requested coverage CMC actually guarantees (Theorem 4).
COVERAGE_DISCOUNT = 1.0 - 1.0 / math.e

_EPS = 1e-9


def cmc(
    system: SetSystem,
    k: int,
    s_hat: float,
    b: float = 1.0,
    on_infeasible: OnInfeasible = "raise",
    deadline: Deadline | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Run Cheap Max Coverage with the original (up to ``5k``) levels.

    Parameters
    ----------
    system:
        The weighted set system.
    k:
        Size constraint of the *optimal* solution being approximated; CMC
        itself may return up to ``5k`` sets.
    s_hat:
        Requested coverage fraction; the run targets
        ``(1 - 1/e) * s_hat * n`` elements, per Theorem 4.
    b:
        Budget growth factor (Fig. 1 line 28); trades solution cost for
        fewer budget rounds.
    on_infeasible:
        ``"raise"`` (default) raises :class:`InfeasibleError` if no budget
        reaches the target (only possible without a full-coverage set);
        ``"partial"`` returns the last round's sets with
        ``feasible=False``.
    deadline:
        Optional cooperative deadline, polled per budget round and per
        pick; expiry raises :class:`~repro.errors.DeadlineExceeded`
        with the current round's partial selection attached.
    backend:
        Marginal tracker: the packed kernel by default, or ``"set"`` for
        the reference oracle. Only the backend-equivalence property
        tests name the oracle; both select identical sets with identical
        metrics.
    """
    params = {"k": k, "s_hat": s_hat, "b": b, "variant": "standard"}
    return run_cmc_driver(
        system,
        k,
        s_hat,
        b,
        scheme_factory=standard_levels,
        algorithm="cmc",
        params=params,
        on_infeasible=on_infeasible,
        deadline=deadline,
        backend=backend,
    )


def run_cmc_driver(
    system: SetSystem,
    k: int,
    s_hat: float,
    b: float,
    scheme_factory: Callable[[Cost, int], LevelScheme],
    algorithm: str,
    params: dict,
    on_infeasible: OnInfeasible = "raise",
    deadline: Deadline | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Shared CMC driver, parameterized by the level scheme.

    The ``(1 + eps) k`` and generalized variants reuse this loop with their
    own :func:`scheme_factory`; see :mod:`repro.core.cmc_epsilon`.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    traced = obs_trace.enabled()
    with (
        obs_trace.span("solve", algorithm=algorithm, k=k, s_hat=s_hat, b=b)
        if traced
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _driver_body(
            system,
            k,
            s_hat,
            b,
            scheme_factory,
            algorithm,
            params,
            on_infeasible,
            deadline,
            backend,
            traced,
        )
        if solve_span.enabled:
            solve_span.set(
                backend=result.params["tracker_backend"],
                budget_rounds=result.metrics.budget_rounds,
                n_sets=result.n_sets,
                total_cost=result.total_cost,
                covered=result.covered,
                feasible=result.feasible,
            )
        return result


def _driver_body(
    system: SetSystem,
    k: int,
    s_hat: float,
    b: float,
    scheme_factory: Callable[[Cost, int], LevelScheme],
    algorithm: str,
    params: dict,
    on_infeasible: OnInfeasible,
    deadline: Deadline | None,
    backend: TrackerBackend | None,
    traced: bool,
) -> CoverResult:
    start = time.perf_counter()
    metrics = Metrics()
    tracker_backend = resolve_backend(system, backend)
    target = COVERAGE_DISCOUNT * s_hat * system.n_elements
    params = dict(params)
    params["target_elements"] = target
    params["tracker_backend"] = tracker_backend

    initial = sum(system.cheapest_costs(k))
    ceiling = system.total_cost

    def _partial(chosen_now: list[int]) -> CoverResult:
        metrics.runtime_seconds = time.perf_counter() - start
        return make_result(
            algorithm=algorithm,
            chosen=chosen_now,
            labels=[system.label_of(set_id) for set_id in chosen_now],
            total_cost=system.cost_of(chosen_now),
            covered=system.coverage_of(chosen_now),
            n_elements=system.n_elements,
            feasible=False,
            params=params,
            metrics=metrics,
        )

    chosen: list[int] = []
    first_round = True
    for budget in budget_schedule(initial, b, ceiling):
        if first_round:
            first_round = False
        else:
            metrics.budget_rounds += 1
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                f"{algorithm}: deadline expired after "
                f"{metrics.budget_rounds} budget round(s)",
                partial=_partial(chosen),
            )
        with (
            obs_trace.span(
                "budget_round",
                round=metrics.budget_rounds,
                budget=budget,
            )
            if traced
            else obs_trace.NULL_SPAN
        ) as round_span:
            # Fig. 1 lines 3-5: every round recomputes the marginal benefit
            # of every candidate set from scratch. (A shared tracker with
            # :meth:`MarginalTracker.reset` would amortize this, but the
            # unoptimized algorithm the paper measures does not. The packed
            # backend keeps the per-round rebuild but reuses the cached
            # columnar layout, which is what makes restarts cheap.)
            with (
                obs_trace.span(
                    "preprocess", op="make_tracker", backend=tracker_backend
                )
                if traced
                else obs_trace.NULL_SPAN
            ):
                tracker = make_tracker(
                    system, metrics=metrics, backend=tracker_backend
                )
            scheme = scheme_factory(budget, k)
            try:
                chosen, reached = _run_round(
                    tracker, scheme, target, deadline, traced
                )
            except _RoundDeadline as signal:
                raise DeadlineExceeded(
                    f"{algorithm}: deadline expired mid-round at budget "
                    f"{budget:g}",
                    partial=_partial(signal.chosen),
                ) from None
            if round_span.enabled:
                round_span.set(selections=len(chosen), reached=reached)
        if reached:
            metrics.runtime_seconds = time.perf_counter() - start
            params["final_budget"] = budget
            return make_result(
                algorithm=algorithm,
                chosen=chosen,
                labels=[system.label_of(set_id) for set_id in chosen],
                total_cost=system.cost_of(chosen),
                covered=system.coverage_of(chosen),
                n_elements=system.n_elements,
                feasible=True,
                params=params,
                metrics=metrics,
            )

    metrics.runtime_seconds = time.perf_counter() - start
    partial = make_result(
        algorithm=algorithm,
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=False,
        params=params,
        metrics=metrics,
    )
    if on_infeasible == "partial":
        return partial
    raise InfeasibleError(
        f"{algorithm}: exhausted the budget schedule without covering "
        f"{target:.2f} elements (the set system lacks a usable "
        "full-coverage set)",
        partial=partial,
    )


class _RoundDeadline(Exception):
    """Internal signal: the deadline expired inside a budget round."""

    def __init__(self, chosen: list[int]) -> None:
        self.chosen = chosen


def _run_round(
    tracker,
    scheme: LevelScheme,
    target: float,
    deadline: Deadline | None = None,
    traced: bool = False,
) -> tuple[list[int], bool]:
    """One budget round: level-by-level quota-bounded greedy max coverage.

    Expects a *fresh, unrestricted* tracker, which is what the driver
    builds each round. Returns the selections of this round and whether
    the target was hit. Raises :class:`_RoundDeadline` (carrying the
    round's selections so far) when the deadline expires mid-round.
    """
    levels = assign_levels(tracker.costs, scheme)
    chosen: list[int] = []
    rem = target
    if rem <= _EPS:
        return chosen, True
    injector = faults.active()
    for level in range(scheme.n_levels):
        member_ids = np.nonzero(levels == level)[0]
        quota = scheme.quotas[level]
        picked = 0
        while picked < quota:
            if deadline is not None and deadline.poll():
                raise _RoundDeadline(chosen)
            set_id = tracker.best_benefit_in(member_ids)
            if set_id is None:
                break
            if injector is not None:
                injector.iteration()
            with (
                obs_trace.span("select", level=level, set_id=set_id)
                if traced
                else obs_trace.NULL_SPAN
            ) as pick_span:
                newly = tracker.select(set_id)
                if pick_span.enabled:
                    pick_span.set(marginal_covered=newly)
            if injector is not None:
                newly = injector.corrupt_marginal(newly)
            chosen.append(set_id)
            picked += 1
            rem -= newly
            if rem <= _EPS:
                return chosen, True
    return chosen, False
