"""Observability must be near-free when switched off.

The tracker ``select`` hot loops carry one ``obs_trace.enabled()`` guard
per selection. These tests check that property directly, without a
clock: with tracing disabled (the default production state), a full
greedy sweep through either tracker reaches :mod:`repro.obs.trace` only
through ``enabled()``, once per ``select``. Accidental per-selection
instrumentation (a span or an event built inside the loop) adds calls
into the trace module and fails the check. (A wall-clock budget against
a hand-copied uninstrumented loop failed on host noise and went stale
whenever the tracker changed; perfbench's ``obs.trace_overhead_ratio``
measures the wall-clock side end to end.)
"""

from __future__ import annotations

import gc
import random
import sys

from repro.core.marginal import MarginalTracker
from repro.core.packed import PackedMarginalTracker
from repro.core.setsystem import SetSystem
from repro.obs import trace as obs_trace

N_ELEMENTS = 512
N_SETS = 160


def _system() -> SetSystem:
    rng = random.Random(20260805)
    benefits = [
        set(rng.sample(range(N_ELEMENTS), rng.randint(4, 40)))
        for _ in range(N_SETS)
    ]
    costs = [1.0 + rng.random() for _ in range(N_SETS)]
    return SetSystem.from_iterables(N_ELEMENTS, benefits, costs)


def _trace_calls_per_select(make_tracker) -> tuple[int, list[str]]:
    """Run a full greedy sweep; return the number of ``select`` calls and
    the names of the :mod:`repro.obs.trace` functions it called, in
    order."""
    trace_file = obs_trace.__file__
    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == trace_file:
            calls.append(frame.f_code.co_qualname)

    tracker = make_tracker()
    selects = 0
    # Collection callbacks (hypothesis installs one) fire at arbitrary
    # points; keep them out of the trace.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        while len(tracker):
            best = max(
                tracker.live_items(), key=lambda kv: (kv[1], -kv[0])
            )[0]
            tracker.select(best)
            selects += 1
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return selects, calls


def _assert_only_guard_per_select(make_tracker) -> None:
    assert not obs_trace.enabled()
    selects, calls = _trace_calls_per_select(make_tracker)
    assert selects > 20  # the loop is actually hot
    assert calls == ["enabled"] * selects


class _SpanInSelect(MarginalTracker):
    """A tracker whose ``select`` opens a span: the mutation the check
    exists to catch."""

    def select(self, set_id):
        with obs_trace.span("select", set_id=set_id):
            return super().select(set_id)


class TestDisabledTracingCalls:
    def test_set_backend_reaches_trace_only_through_enabled(self):
        system = _system()
        _assert_only_guard_per_select(lambda: MarginalTracker(system))

    def test_packed_backend_reaches_trace_only_through_enabled(self):
        system = _system()
        _assert_only_guard_per_select(lambda: PackedMarginalTracker(system))

    def test_span_inside_select_is_caught(self):
        system = _system()
        selects, calls = _trace_calls_per_select(
            lambda: _SpanInSelect(system)
        )
        assert calls.count("span") == selects
        assert calls != ["enabled"] * selects
