"""``solve-sweep``: many verified solves against one warm system.

Set-up loads one 12 000-row LBL table, builds its set system and warms
the layout for the backend ``resolve_backend`` picks. Each op is then
one solve from the paper's Fig. 8/9 grid followed by ``verify_result``.
The grid runs in a seeded order, in whole passes, so every run times
the same mix of solvers.

The table is the dataset's canonical one (``lbl:12000``, the registry's
default seed), not one drawn from the workload seed: answer costs on one
heavy-tailed table swing by about 10 % from seed to seed, which would
swamp the solver changes this workload exists to compare. Fresh tables
per op are ``table-cold``'s job.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

from benchlib import (
    Spans,
    check_verified,
    layer_self_seconds,
    layout_bytes,
    mean,
    median,
    own_peak_rss_mb,
    solver_counts,
)

ROWS = 12_000
SETUP_REPEATS = 3
SOLVERS = ("cwsc", "cmc", "cmc_epsilon")
KS = (5, 10, 20)
S_HATS = (0.3, 0.5, 0.7)
EPS = 0.5


def _setup() -> dict:
    from repro.bench import warm_system_caches
    from repro.core.marginal import resolve_backend
    from repro.datasets import load_dataset
    from repro.patterns import build_set_system

    t0 = time.perf_counter()
    table = load_dataset(f"lbl:{ROWS}")
    t1 = time.perf_counter()
    system = build_set_system(table, "max")
    t2 = time.perf_counter()
    backend = resolve_backend(system)
    warm_system_caches(system, [backend])
    t3 = time.perf_counter()
    return {
        "system": system,
        "backend": backend,
        "seconds": t3 - t0,
        "load": t1 - t0,
        "build": t2 - t1,
        "layout": t3 - t2,
    }


def _solve(system, solver: str, k: int, s_hat: float):
    from repro.core import cmc, cmc_epsilon, cwsc

    if solver == "cwsc":
        return cwsc(system, k, s_hat)
    if solver == "cmc":
        return cmc(system, k, s_hat)
    return cmc_epsilon(system, k, s_hat, eps=EPS)


def _op(spans: Spans, system, cell, op_id):
    from repro.core import verify_result

    solver, k, s_hat = cell
    start = time.perf_counter()
    with spans.span("op", op_id):
        with spans.span(f"core.{solver}", op_id):
            result = _solve(system, solver, k, s_hat)
        with spans.span("core.verify", op_id):
            verified = verify_result(system, result)
    wall = time.perf_counter() - start
    eps = EPS if solver == "cmc_epsilon" else None
    return wall, result, check_verified(verified, result, k, s_hat, eps)


def run(seed: int, seconds: float, trace: bool, env: dict, root: str) -> dict:
    setup_runs = []
    system = None
    for _ in range(1 if trace else SETUP_REPEATS):
        system = None  # drop the previous system before building the next
        gc.collect()
        setup = _setup()
        system = setup.pop("system")
        setup_runs.append(setup)
    backend = setup_runs[-1]["backend"]

    grid = list(itertools.product(SOLVERS, KS, S_HATS))
    random.Random(seed).shuffle(grid)
    spans, plain = Spans(enabled=trace), Spans(enabled=False)
    walls, traced_walls, traced_results = [], [], []
    cost_by_cell: dict = {}
    wrong, breaches = [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Whole passes only, so every run times the same solver mix.
    while attempted == 0 or (
        attempted % len(grid) or time.perf_counter() - start < seconds
    ):
        cell = grid[attempted % len(grid)]
        attempted += 1
        try:
            wall, result, verdict = _op(plain, system, cell, attempted)
            if trace:
                traced_wall, traced_result, _ = _op(
                    spans, system, cell, attempted
                )
                traced_walls.append(traced_wall)
                traced_results.append(traced_result)
        except Exception as error:  # noqa: BLE001 - any failure is counted
            failed += 1
            breaches.append(f"{cell}: {type(error).__name__}: {error}")
            continue
        walls.append(wall)
        cost_by_cell.setdefault(cell, result.total_cost)
        failed += verdict.failed
        wrong.extend(verdict.false_claims)
        breaches.extend(verdict.failures)
    window = time.perf_counter() - start
    outcome = {
        "setup": [] if trace else [r["seconds"] for r in setup_runs],
        "latencies": walls,
        "window": window,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "breaches": breaches,
        "answer_costs": [cost_by_cell[cell] for cell in grid
                         if cell in cost_by_cell],
        "peak_rss_mb": own_peak_rss_mb(),
        "shape": {
            "n_elements": system.n_elements,
            "n_sets": system.n_sets,
            "backend": [backend],
            "body_bytes": 0,
            "reuse_share": 0.0,
        },
    }
    if trace:
        n = len(traced_walls)
        self_s = layer_self_seconds(spans.records, n)
        untraced = mean(walls[:n])
        layers = {
            "datasets.load_s": median([s["load"] for s in setup_runs]),
            "patterns.build_set_system_s": median(
                [s["build"] for s in setup_runs]
            ),
            "patterns.sets_built": system.n_sets,
            "core.layout_s": median([s["layout"] for s in setup_runs]),
            "core.layout_bytes": layout_bytes(system, backend),
            "core.cwsc_s": self_s.get("core.cwsc", 0.0),
            "core.cmc_s": self_s.get("core.cmc", 0.0),
            "core.cmc_epsilon_s": self_s.get("core.cmc_epsilon", 0.0),
            "core.verify_s": self_s.get("core.verify", 0.0),
            "obs.layer_sum_share": (
                sum(v for name, v in self_s.items() if name != "op")
                / untraced if untraced else 0.0
            ),
            "obs.trace_overhead_ratio": (
                mean(traced_walls) / untraced - 1.0 if untraced else 0.0
            ),
        }
        layers.update(solver_counts(traced_results, n))
        outcome["layers"] = layers
        outcome["spans"] = spans
    return outcome
