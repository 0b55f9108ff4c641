"""Randomized LP rounding — the §III strawman, made concrete.

The paper (Related Work): "A natural technique ... is to model it via an
integer linear program, consider its linear relaxation and then round the
fractional solution to a nearby integer optimum. However, to obtain a
guaranteed performance ... may violate the cardinality constraint by more
than a (1 + eps) factor unless k is large."

This module implements that technique so the claim is observable:

1. solve the LP relaxation (:mod:`repro.core.lp_bound`);
2. run ``trials`` independent randomized roundings — include set ``s``
   with probability ``min(1, alpha * x_s)`` where ``alpha`` scales with
   the coverage shortfall;
3. greedily repair any rounding that misses the coverage target (by
   marginal gain, like weighted set cover);
4. return the cheapest repaired rounding.

The result honors the coverage constraint but **not** the size constraint
— ``CoverResult.n_sets`` can exceed ``k``, and
``params["size_violations"]`` records how often that happened across
trials. The ablation benchmark compares this against CWSC/CMC.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fallbacks import greedy_partial
from repro.core.greedy_common import canonical_keys, gain_key
from repro.core.lp_bound import solve_lp_relaxation
from repro.core.marginal import make_tracker
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import DeadlineExceeded, InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience.deadline import Deadline

_EPS = 1e-9


def lp_rounding(
    system: SetSystem,
    k: int,
    s_hat: float,
    trials: int = 10,
    alpha: float = 2.0,
    seed: int = 0,
    deadline: Deadline | None = None,
) -> CoverResult:
    """Round the LP relaxation into an integral cover.

    Parameters
    ----------
    system:
        The weighted set system.
    k:
        Size constraint of the LP (the rounding may exceed it; that is
        the point of the experiment).
    s_hat:
        Required coverage fraction; the returned solution always reaches
        it (greedy repair guarantees feasibility whenever the union of
        all sets does).
    trials:
        Number of independent roundings; the cheapest repaired one wins.
    alpha:
        Inclusion-probability multiplier on the fractional values.
    seed:
        RNG seed; runs are deterministic given identical inputs.
    deadline:
        Optional cooperative deadline checked before the LP solve,
        between trials, and inside the repair loop. On expiry the best
        repaired rounding so far (or a greedy best-effort partial) rides
        along on the :class:`~repro.errors.DeadlineExceeded`.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if alpha <= 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    traced = obs_trace.enabled()
    with (
        obs_trace.span(
            "solve", algorithm="lp_rounding", k=k, s_hat=s_hat, trials=trials
        )
        if traced
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _lp_rounding_body(
            system, k, s_hat, trials, alpha, seed, deadline, traced
        )
        if solve_span.enabled:
            solve_span.set(
                n_sets=result.n_sets,
                total_cost=result.total_cost,
                size_violations=result.params.get("size_violations"),
                feasible=result.feasible,
            )
        return result


def _lp_rounding_body(
    system: SetSystem,
    k: int,
    s_hat: float,
    trials: int,
    alpha: float,
    seed: int,
    deadline: Deadline | None,
    traced: bool,
) -> CoverResult:
    start = time.perf_counter()
    metrics = Metrics()
    required = system.required_coverage(s_hat)
    if deadline is not None:
        deadline.require(
            "lp_rounding (before LP solve)",
            partial=greedy_partial(system, k, s_hat),
        )
    relaxation = solve_lp_relaxation(system, k, s_hat)
    rng = np.random.default_rng(seed)

    fractional_ids = sorted(relaxation.set_fractions)
    probabilities = np.array(
        [
            min(1.0, alpha * relaxation.set_fractions[set_id])
            for set_id in fractional_ids
        ]
    )

    def _best_so_far() -> CoverResult:
        if best is not None:
            cost, chosen = best
            return make_result(
                algorithm="lp_rounding",
                chosen=chosen,
                labels=[system.label_of(set_id) for set_id in chosen],
                total_cost=cost,
                covered=system.coverage_of(chosen),
                n_elements=system.n_elements,
                feasible=True,
                params={"k": k, "s_hat": s_hat, "seed": seed},
                metrics=metrics,
            )
        return greedy_partial(system, k, s_hat)

    best: tuple[float, list[int]] | None = None
    size_violations = 0
    for trial in range(trials):
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                "lp_rounding: deadline expired between trials",
                partial=_best_so_far(),
            )
        draws = rng.random(len(fractional_ids)) < probabilities
        chosen = [
            set_id
            for set_id, included in zip(fractional_ids, draws)
            if included
        ]
        try:
            chosen = _repair(system, chosen, required, metrics, deadline)
        except _RepairDeadline:
            raise DeadlineExceeded(
                "lp_rounding: deadline expired during greedy repair",
                partial=_best_so_far(),
            ) from None
        if traced:
            obs_trace.event(
                "lp_trial",
                trial=trial,
                repaired=chosen is not None,
                n_sets=len(chosen) if chosen is not None else 0,
            )
        if chosen is None:
            continue
        if len(chosen) > k:
            size_violations += 1
        cost = system.cost_of(chosen)
        if best is None or cost < best[0]:
            best = (cost, chosen)

    metrics.runtime_seconds = time.perf_counter() - start
    if best is None:
        raise InfeasibleError(
            "lp_rounding: no trial could be repaired to the coverage "
            "target (the union of all sets is too small)",
            partial=greedy_partial(system, k, s_hat),
        )
    cost, chosen = best
    return make_result(
        algorithm="lp_rounding",
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=cost,
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=True,
        params={
            "k": k,
            "s_hat": s_hat,
            "trials": trials,
            "alpha": alpha,
            "seed": seed,
            "lp_value": relaxation.value,
            "size_violations": size_violations,
        },
        metrics=metrics,
    )


class _RepairDeadline(Exception):
    """Internal signal: deadline expired inside the repair loop."""


def _repair(
    system: SetSystem,
    chosen: list[int],
    required: int,
    metrics: Metrics,
    deadline: Deadline | None = None,
) -> list[int] | None:
    """Greedily extend a rounding until it reaches the coverage target.

    Returns ``None`` when even all sets together fall short. The repair
    drops nothing: removing redundant sets is a separate concern and the
    experiment reports the raw rounding behaviour.
    """
    if system.coverage_of(chosen) >= required:
        return list(chosen)

    tracker = make_tracker(system, metrics=metrics)
    canon_keys = canonical_keys(system)
    for set_id in chosen:
        tracker.select(set_id)
    repaired = list(chosen)
    sets = system.sets
    while tracker.covered_count < required:
        best_id = None
        best_key = None
        for set_id, size in tracker.live_items():
            if deadline is not None and deadline.poll():
                raise _RepairDeadline()
            ws = sets[set_id]
            cost = ws.cost
            gain = size / cost if cost else float("inf")
            if best_key is not None and gain < best_key[0]:
                # gain leads the lexicographic key; strictly smaller
                # cannot win, so skip building the full key.
                continue
            key = gain_key(
                gain,
                size,
                cost,
                ws.label,
                set_id,
                canon_key=canon_keys[set_id],
            )
            if best_key is None or key > best_key:
                best_id = set_id
                best_key = key
        if best_id is None:
            return None
        tracker.select(best_id)
        repaired.append(best_id)
    return repaired
