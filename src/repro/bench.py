"""Per-system cache warm-up for benchmark set-up.

The only benchmark harness is ``perfbench/``; this module holds just the
one helper it imports (``perfbench/table_cold.py`` and
``perfbench/solve_sweep.py``), and ``table_cold.py`` times
``import repro.bench`` as part of its set-up. It stays until a change to
perfbench moves that import, after which the module can be deleted.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.setsystem import SetSystem


def warm_system_caches(system: SetSystem, backends: Iterable[str]) -> None:
    """Build every per-system cache a timed run would otherwise pay for.

    Called once per workload instance before its first measurement.
    Warming used to lean on ``warmup=1``, but with ``warmup=0`` — or
    when a cache is shared across cells — the *first* cell of a workload
    paid the layout/canonical-key builds inside its timed loop and
    showed up as a cold-run outlier in committed baselines. Each
    backend warms only what its tracker's argmax reads: the columnar
    layout and tie-break ranks for ``packed``, the canonical keys for
    ``set``.
    """
    if "set" in backends:
        from repro.core.greedy_common import canonical_keys

        canonical_keys(system)
    if "packed" in backends:
        from repro.core.packed import canonical_ranks, packed_layout

        packed_layout(system)
        canonical_ranks(system)
