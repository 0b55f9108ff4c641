"""Solution-quality telemetry: how good was the answer, not just how fast.

The paper's experiments ask two quality questions of every solve (Tables
4-5): how far above the optimum did the heuristic land, and how much of
the constraint budget did it spend? Per-instance accuracy estimation for
greedy set cover (Prolubnikov, arXiv:1811.04037) shows the first is
cheaply observable per instance via the LP lower bound — any feasible
integral solution costs at least the LP optimum, so
``total_cost / lp_bound`` is a per-instance upper bound on the true
approximation ratio. This module makes those numbers first-class
telemetry:

* :func:`compute_quality` — the pure calculation: approximation ratio
  vs. an LP lower bound, and coverage and size slack vs. the contract
  the solver promises for ``(k, s_hat)``
  (:func:`repro.core.guarantees.contract`);
* :func:`record_quality` — publishes one solve's quality into the
  process-global metrics registry (ratio histogram + last-value gauges)
  and, when a tracer is configured, writes a ``quality`` trace record
  (schema ``scwsc-trace/1``);
* :func:`quality_records` — pulls the ``quality`` records back out of a
  loaded trace for reports and the dashboard.

:func:`repro.obs.metrics.record_cover_result` calls
:func:`record_quality` for every published solve, so quality telemetry
rides the exact same path runtime telemetry already takes; the bench
harness persists the same dict per cell and gates regressions on it
(see :mod:`repro.bench` and docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.result import CoverResult
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, get_registry

#: Approximation-ratio histogram buckets. Fixed (like
#: :data:`repro.obs.metrics.DEFAULT_BUCKETS`) so snapshots merge; 1.0 is
#: "matched the LP bound", the tail catches pathological fallbacks.
RATIO_BUCKETS: tuple[float, ...] = (
    1.0,
    1.05,
    1.1,
    1.25,
    1.5,
    2.0,
    3.0,
    5.0,
    10.0,
    25.0,
)


def compute_quality(
    result: CoverResult,
    k: int | None = None,
    s_hat: float | None = None,
    lp_bound: float | None = None,
) -> dict[str, Any]:
    """Quality facts for one finished solve, as a JSON-ready dict.

    ``k`` and ``s_hat`` are the request's and default to the values the
    solver recorded in ``result.params`` (every core solver stores
    both). ``lp_bound`` is never computed here — solving the LP costs
    more than the solve being measured on small instances, so callers
    decide when it is worth it (the bench harness computes it once per
    workload cell).

    Keys
    ----
    ``approx_ratio``
        ``total_cost / lp_bound`` — an upper bound on the true
        approximation ratio. ``None`` when no (positive, finite)
        ``lp_bound`` is available.
    ``coverage_target`` / ``coverage_slack``
        The coverage fraction of the solver's
        :func:`~repro.core.guarantees.contract` (``s_hat``, discounted
        for CMC) and ``coverage_fraction`` minus it.
    ``sets_used`` / ``sets_budget`` / ``sets_slack``
        Solution size, the contract's size bound (``k``, up to ``5k``
        for CMC) and the bound minus the size. A slack is negative only
        for an answer that broke its contract; all four are ``None``
        unless both ``k`` and ``s_hat`` are known.
    """
    if k is None:
        k = result.params.get("k")
    if s_hat is None:
        s_hat = result.params.get("s_hat")
    promised = sets_slack = coverage_slack = None
    if k is not None and s_hat is not None:
        # Imported here: repro.core's solvers import repro.obs.
        from repro.core.guarantees import contract

        promised = contract(
            result.algorithm, int(k), float(s_hat), result.params
        )
        sets_slack = promised.max_sets - result.n_sets
        coverage_slack = result.coverage_fraction - promised.coverage
    approx_ratio = None
    if (
        lp_bound is not None
        and lp_bound > 0
        and math.isfinite(lp_bound)
        and math.isfinite(result.total_cost)
    ):
        approx_ratio = float(result.total_cost) / float(lp_bound)
    return {
        "total_cost": (
            float(result.total_cost)
            if math.isfinite(result.total_cost)
            else None
        ),
        "lp_bound": (
            float(lp_bound)
            if lp_bound is not None and math.isfinite(lp_bound)
            else None
        ),
        "approx_ratio": approx_ratio,
        "coverage_fraction": result.coverage_fraction,
        "coverage_target": None if promised is None else promised.coverage,
        "coverage_slack": coverage_slack,
        "sets_used": result.n_sets,
        "sets_budget": None if promised is None else promised.max_sets,
        "sets_slack": sets_slack,
        "feasible": bool(result.feasible),
    }


def record_quality(
    result: CoverResult,
    k: int | None = None,
    s_hat: float | None = None,
    lp_bound: float | None = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Publish one solve's quality telemetry; returns the quality dict.

    Registry side: ``scwsc_approx_ratio`` (histogram over
    :data:`RATIO_BUCKETS`, only when a bound is available) plus
    last-value gauges ``scwsc_coverage_slack`` / ``scwsc_sets_used``
    and the ``scwsc_infeasible_results_total`` counter, all labelled by
    algorithm. Trace side: one ``quality`` record, so a trace file
    carries the answer-quality story alongside the timing story.
    """
    registry = registry or get_registry()
    quality = compute_quality(result, k=k, s_hat=s_hat, lp_bound=lp_bound)
    algorithm = result.algorithm
    if quality["approx_ratio"] is not None:
        registry.histogram(
            "scwsc_approx_ratio",
            "Solution cost over the LP lower bound, per solve",
            buckets=RATIO_BUCKETS,
        ).observe(quality["approx_ratio"], algorithm=algorithm)
    if quality["coverage_slack"] is not None:
        registry.gauge(
            "scwsc_coverage_slack",
            "coverage_fraction - s_hat of the most recent solve",
        ).set(quality["coverage_slack"], algorithm=algorithm)
    registry.gauge(
        "scwsc_sets_used",
        "Solution size of the most recent solve",
    ).set(quality["sets_used"], algorithm=algorithm)
    if not quality["feasible"]:
        registry.counter(
            "scwsc_infeasible_results_total",
            "Solves that returned an infeasible (partial) answer",
        ).inc(algorithm=algorithm)
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        tracer.write_raw(
            {
                "type": "quality",
                "t": round(tracer.now(), 6),
                "algorithm": algorithm,
                "quality": quality,
            }
        )
    return quality


def quality_records(records: list[dict]) -> list[dict]:
    """The ``quality`` records of a loaded trace, in file order."""
    return [r for r in records if r.get("type") == "quality"]
