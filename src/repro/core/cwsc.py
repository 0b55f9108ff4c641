"""Concise Weighted Set Cover (CWSC) — Fig. 2 of the paper.

CWSC adapts the partial weighted set cover heuristic (pick the set with the
highest marginal gain) to the size constraint: with ``i`` picks remaining
and ``rem`` elements still to cover, only sets whose marginal benefit is at
least ``rem / i`` are eligible. It therefore uses at most ``k`` sets and
always reaches the coverage target when it succeeds, but carries no cost
guarantee (Section V-B).
"""

from __future__ import annotations

import time
from typing import Literal

from repro.core.greedy_common import canonical_keys, gain_key
from repro.core.marginal import TrackerBackend, make_tracker, resolve_backend
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import DeadlineExceeded, InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience import faults
from repro.resilience.deadline import Deadline

#: What to do when no set clears the ``rem / i`` threshold (Fig. 2 line 7).
#:
#: * ``"raise"`` — raise :class:`InfeasibleError` (the paper's
#:   ``return "No solution"``);
#: * ``"full_cover"`` — fall back to the cheapest set covering all of ``T``
#:   (the paper's "default solution with the set that contains all the
#:   elements"); raises if no such set exists;
#: * ``"partial"`` — return the infeasible partial solution with
#:   ``feasible=False``.
OnInfeasible = Literal["raise", "full_cover", "partial"]

#: Tolerance for float coverage arithmetic: ``rem`` starts at the real
#: number ``s_hat * n`` and is decremented by integers.
_EPS = 1e-9


def cwsc(
    system: SetSystem,
    k: int,
    s_hat: float,
    on_infeasible: OnInfeasible = "raise",
    deadline: Deadline | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Run Concise Weighted Set Cover on an arbitrary set system.

    Parameters
    ----------
    system:
        The weighted set system.
    k:
        Maximum number of sets in the solution (``k >= 1``).
    s_hat:
        Required coverage fraction in ``[0, 1]``.
    on_infeasible:
        Fallback policy when the threshold selection fails; see
        :data:`OnInfeasible`.
    deadline:
        Optional cooperative deadline, polled once per pick and every few
        candidate scans; expiry raises
        :class:`~repro.errors.DeadlineExceeded` with the best partial
        result attached.
    backend:
        Marginal-tracker backend (``"set"``, ``"packed"``, ``"auto"``);
        defaults to the auto/env selection of
        :func:`repro.core.marginal.resolve_backend`. All backends
        select identical sets with identical metrics.

    Returns
    -------
    CoverResult
        Chosen sets in selection order, with metrics.

    Notes
    -----
    Ties on marginal gain are broken toward larger marginal benefit, then
    lower cost, then the canonical label key — identical to the optimized
    patterned variant, so the two select the same sets.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    # One enabled() check per solve; per-pick spans below are guarded by
    # this bool so the disabled path allocates nothing.
    traced = obs_trace.enabled()
    with (
        obs_trace.span("solve", algorithm="cwsc", k=k, s_hat=s_hat)
        if traced
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _cwsc_body(
            system, k, s_hat, on_infeasible, deadline, backend, traced
        )
        if solve_span.enabled:
            solve_span.set(
                backend=result.params["tracker_backend"],
                n_sets=result.n_sets,
                total_cost=result.total_cost,
                covered=result.covered,
                feasible=result.feasible,
            )
        return result


def _cwsc_body(
    system: SetSystem,
    k: int,
    s_hat: float,
    on_infeasible: OnInfeasible,
    deadline: Deadline | None,
    backend: TrackerBackend | None,
    traced: bool,
) -> CoverResult:
    start = time.perf_counter()
    metrics = Metrics()
    tracker_backend = resolve_backend(system, backend)
    params = {
        "k": k,
        "s_hat": s_hat,
        "on_infeasible": on_infeasible,
        "tracker_backend": tracker_backend,
    }

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
    rem = s_hat * system.n_elements
    chosen: list[int] = []
    # Per-iteration diagnostics (Fig. 2's loop state), recorded in
    # params["trace"]: remaining picks, remaining coverage, threshold,
    # the chosen set and its marginal benefit.
    trace: list[dict] = []
    params["trace"] = trace

    if rem <= _EPS:
        return _finish(system, "cwsc", chosen, True, params, metrics, start)

    injector = faults.active()
    # The packed tracker exposes a vectorized argmax that
    # reproduces gain_key's lexicographic order exactly; the Python scan
    # below is the reference path for the dict-based backends.
    fast_argmax = getattr(tracker, "best_gain_candidate", None)
    canon_keys = canonical_keys(system) if fast_argmax is None else None
    for i in range(k, 0, -1):
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                f"cwsc: deadline expired after {len(chosen)} of {k} picks",
                partial=_finish(
                    system, "cwsc", chosen, False, params, metrics, start
                ),
            )
        if injector is not None:
            injector.iteration()
        threshold = rem / i - _EPS
        with (
            obs_trace.span("select", picks_left=i, threshold=rem / i)
            if traced
            else obs_trace.NULL_SPAN
        ) as pick_span:
            if deadline is not None and fast_argmax is not None and deadline.poll():
                raise DeadlineExceeded(
                    f"cwsc: deadline expired scanning candidates for pick "
                    f"{len(chosen) + 1}",
                    partial=_finish(
                        system, "cwsc", chosen, False, params, metrics, start
                    ),
                )
            if fast_argmax is not None:
                best_id = fast_argmax(threshold)
            else:
                best_id = _scan_candidates(
                    system, tracker, threshold, canon_keys, deadline,
                    lambda: _finish(
                        system, "cwsc", chosen, False, params, metrics, start
                    ),
                    len(chosen),
                )
            if best_id is None:
                return _bail(
                    system,
                    "cwsc",
                    chosen,
                    rem,
                    on_infeasible,
                    params,
                    metrics,
                    start,
                )
            newly = tracker.select(best_id)
            if pick_span.enabled:
                pick_span.set(set_id=best_id, marginal_covered=newly)
        if injector is not None:
            newly = injector.corrupt_marginal(newly)
        trace.append(
            {
                "picks_left": i,
                "rem_before": rem,
                "threshold": rem / i,
                "set_id": best_id,
                "marginal_covered": newly,
            }
        )
        chosen.append(best_id)
        rem -= newly
        if rem <= _EPS:
            return _finish(system, "cwsc", chosen, True, params, metrics, start)
    # All k picks used without reaching the target. Unreachable in theory
    # (each pick covers >= rem/i, so k picks cover everything), kept as a
    # guard against float corner cases.
    return _bail(
        system, "cwsc", chosen, rem, on_infeasible, params, metrics, start
    )  # pragma: no cover


def _scan_candidates(
    system: SetSystem,
    tracker,
    threshold: float,
    canon_keys,
    deadline: Deadline | None,
    make_partial,
    picks_done: int,
):
    """Reference argmax: scan live candidates for the best gain key."""
    best_id = None
    best_key = None
    sets = system.sets
    for set_id, size in tracker.live_items():
        if deadline is not None and deadline.poll():
            raise DeadlineExceeded(
                f"cwsc: deadline expired scanning candidates for pick "
                f"{picks_done + 1}",
                partial=make_partial(),
            )
        if size < threshold:
            continue
        ws = sets[set_id]
        cost = ws.cost
        # MGain(s, S) = |MBen| / cost, inlined (live sets have
        # size > 0, so a zero cost means infinite gain).
        gain = size / cost if cost else float("inf")
        if best_key is not None and gain < best_key[0]:
            # gain is the leading key component; a strictly smaller
            # gain can never win the lexicographic comparison, so
            # skip building the full key.
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
    return best_id


def _finish(
    system: SetSystem,
    algorithm: str,
    chosen: list[int],
    feasible: bool,
    params: dict,
    metrics: Metrics,
    start: float,
) -> CoverResult:
    metrics.runtime_seconds = time.perf_counter() - start
    return make_result(
        algorithm=algorithm,
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=system.cost_of(chosen),
        covered=system.coverage_of(chosen),
        n_elements=system.n_elements,
        feasible=feasible,
        params=params,
        metrics=metrics,
    )


def _bail(
    system: SetSystem,
    algorithm: str,
    chosen: list[int],
    rem: float,
    on_infeasible: OnInfeasible,
    params: dict,
    metrics: Metrics,
    start: float,
) -> CoverResult:
    """Apply the infeasibility policy after a failed threshold selection."""
    if on_infeasible == "partial":
        return _finish(system, algorithm, chosen, False, params, metrics, start)
    if on_infeasible == "full_cover":
        full = [
            ws for ws in system.sets if ws.size == system.n_elements
        ]
        if full:
            cheapest = min(full, key=lambda ws: (ws.cost, ws.set_id))
            return _finish(
                system, algorithm, [cheapest.set_id], True, params, metrics, start
            )
        # fall through to raising: no default solution exists
    partial = _finish(system, algorithm, chosen, False, params, metrics, start)
    raise InfeasibleError(
        f"{algorithm}: no candidate set covers the required {rem:.3f} "
        "remaining elements per remaining pick",
        partial=partial,
    )
