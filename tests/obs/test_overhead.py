"""Observability must be near-free when switched off.

The tracker ``select`` hot loops carry one ``obs_trace.enabled()`` guard
per selection. This test pins that cost: a full greedy sweep through the
instrumented trackers (tracing disabled — the default production state)
may not be more than a fixed factor slower than the same sweep with the
guard physically removed. The uninstrumented baselines below are literal
copies of the ``select`` bodies minus the observability block; if the
tracker internals change shape, update the copies alongside.

The factor is deliberately generous (the loops run microseconds, CI
machines are noisy) — the test exists to catch accidental per-iteration
instrumentation (spans or attr dicts built inside the loop), which shows
up as 10-100x, not 1.2x.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.core.marginal import MarginalTracker
from repro.core.packed import PackedMarginalTracker
from repro.core.setsystem import SetSystem
from repro.obs import trace as obs_trace

#: Instrumented / uninstrumented budget. Anything honest sits near 1x;
#: per-selection span creation blows well past this.
MAX_SLOWDOWN = 5.0

N_ELEMENTS = 512
N_SETS = 160
BEST_OF = 5


def _system() -> SetSystem:
    rng = random.Random(20260805)
    benefits = [
        set(rng.sample(range(N_ELEMENTS), rng.randint(4, 40)))
        for _ in range(N_SETS)
    ]
    costs = [1.0 + rng.random() for _ in range(N_SETS)]
    return SetSystem.from_iterables(N_ELEMENTS, benefits, costs)


def _greedy_order(tracker) -> list[int]:
    """The selection order a greedy sweep visits; fixed up front so the
    timed loops do identical work."""
    order = []
    while len(tracker):
        best = max(tracker.live_items(), key=lambda kv: (kv[1], -kv[0]))[0]
        tracker.select(best)
        order.append(best)
    return order


def _select_set_baseline(tracker: MarginalTracker, set_id: int) -> int:
    # MarginalTracker.select without the obs_trace block.
    tracker._mben_count.pop(set_id, None)
    tracker._metrics.selections += 1
    newly = [
        element
        for element in tracker._system[set_id].benefit
        if element not in tracker._covered
    ]
    counts = tracker._mben_count
    updates = 0
    for element in newly:
        tracker._covered.add(element)
        for other in tracker._element_to_sets.get(element, ()):
            remaining = counts.get(other)
            if remaining is None:
                continue
            updates += 1
            if remaining == 1:
                del counts[other]
            else:
                counts[other] = remaining - 1
    tracker._metrics.marginal_updates += updates
    return len(newly)


def _select_packed_baseline(tracker: PackedMarginalTracker, set_id: int) -> int:
    # PackedMarginalTracker.select without the strategy counter and the
    # obs_trace block.
    newly, overlap, _ = tracker._apply_select(set_id)
    if newly:
        tracker._counts -= overlap
        np.logical_and(tracker._live, tracker._counts > 0, out=tracker._live)
        tracker._metrics.marginal_updates += int(overlap.sum())
    return newly


def _best_of(make_tracker, order, select):
    best = float("inf")
    for _ in range(BEST_OF):
        tracker = make_tracker()
        t0 = time.perf_counter()
        for set_id in order:
            select(tracker, set_id)
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_within_budget(make_tracker, baseline_select):
    assert not obs_trace.enabled()
    order = _greedy_order(make_tracker())
    assert len(order) > 20  # the loop is actually hot
    # Interleave-free warmup of both paths, then best-of-N each.
    instrumented = _best_of(
        make_tracker, order, lambda t, s: t.select(s)
    )
    baseline = _best_of(make_tracker, order, baseline_select)
    slowdown = instrumented / max(baseline, 1e-9)
    assert slowdown <= MAX_SLOWDOWN, (
        f"disabled-tracing tracker loop is {slowdown:.2f}x the "
        f"uninstrumented baseline (budget {MAX_SLOWDOWN}x): "
        f"{instrumented * 1e6:.0f}us vs {baseline * 1e6:.0f}us"
    )


class TestDisabledTracingOverhead:
    def test_set_backend_within_budget(self):
        system = _system()
        _assert_within_budget(
            lambda: MarginalTracker(system), _select_set_baseline
        )

    def test_packed_backend_within_budget(self):
        system = _system()
        _assert_within_budget(
            lambda: PackedMarginalTracker(system), _select_packed_baseline
        )

    def test_baselines_match_instrumented_semantics(self):
        """The copies above must do the same work, or the timing ratio is
        meaningless: equal counts, coverage, and metrics on a full sweep."""
        system = _system()
        for make, select in (
            (lambda: MarginalTracker(system), _select_set_baseline),
            (lambda: PackedMarginalTracker(system), _select_packed_baseline),
        ):
            real, copy = make(), make()
            order = _greedy_order(make())
            for set_id in order:
                real.select(set_id)
                select(copy, set_id)
            assert real.covered == copy.covered
            assert real.live_items() == copy.live_items()
            assert (
                real.metrics.marginal_updates == copy.metrics.marginal_updates
            )
