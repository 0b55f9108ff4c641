"""Stdlib stack sampler: ``sys._current_frames`` snapshots for the daemon.

Answers "what is every thread doing *right now*" without a debugger and
without py-spy: one call to :func:`sample_once` walks the interpreter's
frame table and renders each thread's stack as ``file:line:function``
frames, outermost first. Two usage modes, both on the same primitive:

* **on demand** — ``GET /debug/stacks`` calls :func:`sample_once`;
* **burst** — the postmortem builder takes a short burst (a handful of
  samples a few ms apart) so a bundle shows what the daemon was doing
  around the trigger, not just one instant.

Samples also aggregate into collapsed-stack lines
(``frame;frame;frame count``), the same format ``scwsc trace
flamegraph`` emits, so a bundle's stacks drop straight into any
flamegraph viewer.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Any

__all__ = [
    "sample_once",
    "burst",
    "collapse_samples",
]


def _thread_names() -> dict[int, str]:
    return {thread.ident: thread.name for thread in threading.enumerate()
            if thread.ident is not None}


def sample_once() -> dict[str, Any]:
    """One snapshot of every thread's Python stack.

    Returns ``{"ts": ..., "threads": [{"thread_id", "name", "daemon",
    "frames": ["file:line:function", ... outermost first]}, ...]}``.
    """
    names = _thread_names()
    daemons = {thread.ident: thread.daemon for thread in threading.enumerate()}
    current = threading.get_ident()
    threads = []
    for thread_id, frame in sorted(sys._current_frames().items()):
        frames: list[str] = []
        while frame is not None:
            code = frame.f_code
            frames.append(
                f"{code.co_filename}:{frame.f_lineno}:{code.co_name}"
            )
            frame = frame.f_back
        frames.reverse()
        threads.append(
            {
                "thread_id": thread_id,
                "name": names.get(thread_id, f"thread-{thread_id}"),
                "daemon": bool(daemons.get(thread_id, False)),
                "is_sampler": thread_id == current,
                "frames": frames,
            }
        )
    return {"ts": round(time.time(), 3), "threads": threads}


def burst(count: int = 5, interval: float = 0.02) -> list[dict[str, Any]]:
    """Take ``count`` samples ``interval`` seconds apart (blocking —
    callers run this off the hot path, e.g. the bundle-builder thread)."""
    samples = []
    for index in range(max(1, count)):
        if index:
            time.sleep(interval)
        samples.append(sample_once())
    return samples


def collapse_samples(samples: list[dict[str, Any]]) -> list[str]:
    """Aggregate samples into collapsed-stack lines (``f;g;h count``),
    most frequent first. The sampler's own thread is excluded."""
    counts: Counter[str] = Counter()
    for sample in samples:
        for thread in sample.get("threads", ()):
            if thread.get("is_sampler"):
                continue
            frames = [
                frame.rsplit("/", 1)[-1] for frame in thread.get("frames", ())
            ]
            if frames:
                counts[";".join(frames)] += 1
    return [
        f"{stack} {count}"
        for stack, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]
