"""The flight recorder must be invisible to the solver hot loops.

Arming the recorder installs a ring channel but leaves
``trace.enabled()`` False, so the per-selection guard in the tracker
``select`` loops reads the same global and takes the same branch — the
loop is the same code with the recorder on or off. These tests check
that property directly, without a clock: the greedy sweep makes the same
selections, with the same covered counts, through the same sequence of
Python and builtin calls in both states. (Timing the two states against
a 2 % budget failed on host noise alone on 2-vCPU machines; perfbench's
``obs.trace_overhead_ratio`` measures the wall-clock side end to end.)

The companion serve-side budget (recorder work per request vs. request
p50) lives in ``tests/serve/test_debug_endpoints.py``.
"""

from __future__ import annotations

import gc
import random
import sys

from repro.core.marginal import MarginalTracker
from repro.core.packed import PackedMarginalTracker
from repro.core.setsystem import SetSystem
from repro.obs import flightrec
from repro.obs import trace as obs_trace

N_ELEMENTS = 512
N_SETS = 160


def _system() -> SetSystem:
    rng = random.Random(20260807)
    benefits = [
        set(rng.sample(range(N_ELEMENTS), rng.randint(4, 40)))
        for _ in range(N_SETS)
    ]
    costs = [1.0 + rng.random() for _ in range(N_SETS)]
    return SetSystem.from_iterables(N_ELEMENTS, benefits, costs)


def _greedy_order(tracker) -> list[int]:
    order = []
    while len(tracker):
        best = max(tracker.live_items(), key=lambda kv: (kv[1], -kv[0]))[0]
        tracker.select(best)
        order.append(best)
    return order


def _profiled_sweep(make_tracker) -> tuple[list, list]:
    """The greedy sweep's picks with their covered counts, and every
    Python and builtin call the sweep made, in order."""
    calls: list[tuple[str, str]] = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_filename, frame.f_code.co_qualname))
        elif event == "c_call":
            calls.append(("<builtin>", getattr(arg, "__qualname__", "?")))

    tracker = make_tracker()
    picks = []
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
            picks.append((best, tracker.select(best)))
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return picks, calls


def _assert_armed_sweep_unchanged(make_tracker):
    assert not obs_trace.recording()
    # Warm once: the first sweep in a process registers its metrics.
    _profiled_sweep(make_tracker)
    picks, calls = _profiled_sweep(make_tracker)
    assert len(picks) > 20
    flightrec.install()
    try:
        assert obs_trace.recording() and not obs_trace.enabled()
        armed_picks, armed_calls = _profiled_sweep(make_tracker)
    finally:
        flightrec.uninstall()
    assert armed_picks == picks
    assert armed_calls == calls


class TestArmedRecorderOverhead:
    def test_set_backend_unchanged_when_armed(self):
        system = _system()
        _assert_armed_sweep_unchanged(lambda: MarginalTracker(system))

    def test_packed_backend_unchanged_when_armed(self):
        system = _system()
        _assert_armed_sweep_unchanged(lambda: PackedMarginalTracker(system))

    def test_armed_sweep_rings_no_per_selection_spans(self):
        """The mechanism behind the budget: a full sweep with the
        recorder armed must land zero per-selection records in the ring
        — only guard-protected call sites may fire, and they key on
        ``enabled()``, which stays False."""
        system = _system()
        rec = flightrec.install()
        try:
            tracker = MarginalTracker(system)
            for set_id in _greedy_order(MarginalTracker(system)):
                tracker.select(set_id)
            assert len(rec.spans) == 0
            assert len(rec.events) == 0
        finally:
            flightrec.uninstall()
