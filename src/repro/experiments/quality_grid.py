"""Shared CWSC-vs-CMC grid behind Tables IV and V.

One run of CWSC and one of CMC per ``(b, eps)`` configuration for each
coverage fraction, on the fully enumerated pattern system (the algorithms
exactly as defined in Figs. 1-2, parameterized by ``b`` and ``eps``).
Table IV reads the costs, Table V the runtimes; results are memoized so
producing both tables costs one grid.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.cmc_epsilon import cmc_epsilon
from repro.core.cwsc import cwsc
from repro.experiments.sweeps import master_trace
from repro.patterns.pattern_sets import build_set_system

CONFIG = {
    "full": {
        "n_rows": 12_000,
        "seed": 7,
        "k": 10,
        "s_values": (0.3, 0.4, 0.5, 0.6),
        "cmc_configs": (
            (0.5, 1.0), (0.5, 2.0), (1.0, 1.0),
            (1.0, 2.0), (2.0, 1.0), (2.0, 2.0),
        ),
    },
    "small": {
        "n_rows": 400,
        "seed": 7,
        "k": 5,
        "s_values": (0.3, 0.5),
        "cmc_configs": ((1.0, 1.0), (2.0, 2.0)),
    },
}

_grid_cache: dict[tuple, dict] = {}


def _cell_specs(config: dict) -> list[tuple[str, float, Callable, dict]]:
    """Every grid cell as ``(row label, s_hat, solver, options)``."""
    specs = [
        ("CWSC", s_hat, cwsc, {"on_infeasible": "full_cover"})
        for s_hat in config["s_values"]
    ]
    for b, eps in config["cmc_configs"]:
        label = f"CMC (b={b:g}, eps={eps:g})"
        specs.extend(
            (label, s_hat, cmc_epsilon, {"b": b, "eps": eps})
            for s_hat in config["s_values"]
        )
    return specs


def grid_results(scale: str) -> dict:
    """``{"build_seconds": .., "rows": {label: {s: result}}}`` memoized.

    ``label`` is ``"CWSC"`` or ``"CMC (b=.., eps=..)"``; each result is a
    :class:`~repro.core.result.CoverResult`.
    """
    if scale in _grid_cache:
        return _grid_cache[scale]
    config = CONFIG[scale]
    table = master_trace(config["n_rows"], config["seed"])
    build_start = time.perf_counter()
    system = build_set_system(table, "max")
    build_seconds = time.perf_counter() - build_start

    rows: dict[str, dict[float, object]] = {}
    for label, s_hat, solver, options in _cell_specs(config):
        rows.setdefault(label, {})[s_hat] = solver(
            system, config["k"], s_hat, **options
        )
    result = {
        "build_seconds": build_seconds,
        "rows": rows,
        "config": config,
    }
    _grid_cache[scale] = result
    return result
