"""Benchmark regression harness (``scwsc bench``).

Runs the paper-shaped workloads under wall-clock measurement and emits a
machine-readable report (``BENCH_micro.json``) that CI diffs against a
committed baseline:

* ``bench_table5_runtime`` — every solver at the largest workload size
  (the shape behind the paper's Table 5 runtime comparison);
* ``bench_fig5_datasize`` — CWSC and CMC swept across dataset sizes
  (the shape behind Fig. 5's runtime-vs-data-size curves).

Each benchmark runs on both marginal-tracker backends (the ``packed``
production kernel and the ``set`` reference oracle; see
:mod:`repro.core.marginal`), so the report also carries the packed
speedup over set per workload. Per-system caches (canonical keys, the
columnar packed layout, CMC's sorted heap entries) are warmed
*explicitly* before the first measurement of each workload
(:func:`warm_system_caches`) — relying on ``warmup=1``
left the first cell of every workload paying the cache builds, which
showed up as a cold-run outlier in committed baselines. Timings then
use ``warmup`` un-timed iterations followed by ``repeat`` timed ones;
the *median* is the comparison statistic, which makes single-run noise
spikes harmless.

Two packed-only scales beyond the CI pair probe the large-``n`` regime:
``large`` (n = 10^5 LBL rows — the ``make bench-large`` / CI smoke
workload) and ``xlarge`` (a synthetic n = 10^6 universe, opt-in).

Regression checking is tolerance-based, not exact: CI machines jitter,
so ``--check`` only fails when a benchmark's median exceeds
``tolerance x`` its committed baseline median (default 3x). The
committed baseline lives at ``benchmarks/BENCH_baseline.json`` and is
regenerated with ``scwsc bench --quick --out
benchmarks/BENCH_baseline.json`` on a quiet machine.

``--check`` also gates *answer quality*, which does not jitter: every
cell carries a quality dict (:func:`repro.obs.quality.compute_quality`
against an LP lower bound computed once per workload size), and a cell
whose approximation ratio worsens beyond ``--quality-tolerance``
(default 1.1x) — or that turns infeasible where the baseline was
feasible — fails the check even when it got *faster*. Each bench run
additionally appends one line to ``BENCH_history.jsonl``
(``scwsc-bench-history/1``): the per-cell medians and ratios that the
dashboard (``scwsc report``) renders as trend sparklines.

The module is importable (``repro.bench.run_benchmarks``) for tests and
notebooks; ``benchmarks/harness.py`` is a thin shim for running it
without an installed console script.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.core import cmc, cmc_epsilon, cwsc
from repro.core.result import CoverResult
from repro.core.setsystem import SetSystem
from repro.errors import ReproError, ValidationError
from repro.obs import trace as obs_trace
from repro.obs.quality import compute_quality
from repro.obs.report import phase_rollups

#: Report format version; bump on incompatible layout changes.
SCHEMA = "scwsc-bench/1"

#: History-line format version (one JSON line per bench run).
HISTORY_SCHEMA = "scwsc-bench-history/1"

#: Default regression tolerance: fail only when a median is more than
#: this factor slower than the committed baseline.
DEFAULT_TOLERANCE = 3.0

#: Quality-regression tolerance: approximation ratios are deterministic
#: (no machine jitter), so the factor is much tighter than the runtime
#: one — it only absorbs legitimate tie-break changes.
DEFAULT_QUALITY_TOLERANCE = 1.1

#: Memory-regression tolerance for per-cell peak RSS. RSS is a lifetime
#: high-water mark (``ru_maxrss`` never goes down), so only genuine
#: footprint blow-ups should trip it.
DEFAULT_MEMORY_TOLERANCE = 2.0

DEFAULT_BASELINE = Path("benchmarks") / "BENCH_baseline.json"
DEFAULT_OUT = Path("BENCH_micro.json")
DEFAULT_HISTORY = Path("BENCH_history.jsonl")

#: Solve parameters shared by every benchmark (the paper grid's center).
BENCH_K = 10
BENCH_S_HAT = 0.5

_SOLVERS: dict[str, Callable[..., CoverResult]] = {
    "cwsc": lambda system, backend: cwsc(
        system, k=BENCH_K, s_hat=BENCH_S_HAT, backend=backend
    ),
    "cmc": lambda system, backend: cmc(
        system, k=BENCH_K, s_hat=BENCH_S_HAT, backend=backend
    ),
    "cmc_epsilon": lambda system, backend: cmc_epsilon(
        system, k=BENCH_K, s_hat=BENCH_S_HAT, eps=0.5, backend=backend
    ),
}

#: Workload sizes (generated LBL-trace rows) and solver pools per scale.
#: A scale may also pin its own ``backends`` (the large scales drop the
#: ``set`` backend, which is too slow at n >= 10^5)
#: and ``workloads`` (the large scales only run the Table-5 shape), and
#: mark itself ``synthetic`` (universe sizes beyond the LBL generator).
_SCALES: dict[str, dict] = {
    "quick": {"sizes": (600, 1200), "solvers": ("cwsc", "cmc")},
    "full": {
        "sizes": (3000, 6000, 12000),
        "solvers": ("cwsc", "cmc", "cmc_epsilon"),
    },
    "large": {
        "sizes": (100_000,),
        "solvers": ("cwsc", "cmc"),
        "backends": ("packed",),
        "workloads": ("bench_table5_runtime",),
    },
    "xlarge": {
        "sizes": (1_000_000,),
        "solvers": ("cwsc",),
        "backends": ("packed",),
        "workloads": ("bench_table5_runtime",),
        "synthetic": True,
    },
}

BACKENDS = ("set", "packed")

#: Skip the LP lower bound above this size: one LP solve on the
#: n = 10^5 instance costs more than the whole benchmark matrix, and the
#: large scales gate on runtime/memory, not approximation ratio.
LP_BOUND_MAX_ROWS = 20_000


@dataclass(frozen=True)
class BenchCase:
    """One (workload, solver, size, backend) measurement."""

    workload: str
    solver: str
    n_rows: int
    backend: str

    @property
    def bench_id(self) -> str:
        return (
            f"{self.workload}[{self.solver}-n{self.n_rows}-{self.backend}]"
        )

    @property
    def speedup_id(self) -> str:
        return f"{self.workload}[{self.solver}-n{self.n_rows}]"


def default_cases(
    scale: str,
    sizes: tuple[int, ...] | None = None,
    backends: Iterable[str] | None = None,
) -> list[BenchCase]:
    """The benchmark matrix for a scale, in deterministic order.

    ``backends=None`` takes the scale's own backend pool (falling back
    to :data:`BACKENDS`); an explicit iterable overrides it.
    """
    try:
        spec = _SCALES[scale]
    except KeyError:
        raise ValidationError(
            f"unknown bench scale {scale!r}; known: {sorted(_SCALES)}"
        ) from None
    sizes = tuple(sizes) if sizes is not None else spec["sizes"]
    if backends is None:
        backends = spec.get("backends", BACKENDS)
    backends = tuple(backends)
    workloads = spec.get(
        "workloads", ("bench_table5_runtime", "bench_fig5_datasize")
    )
    cases: list[BenchCase] = []
    if "bench_table5_runtime" in workloads:
        for solver in spec["solvers"]:
            for backend in backends:
                cases.append(
                    BenchCase(
                        "bench_table5_runtime", solver, sizes[-1], backend
                    )
                )
    if "bench_fig5_datasize" in workloads:
        for solver in ("cwsc", "cmc"):
            if solver not in spec["solvers"]:
                continue
            for n_rows in sizes:
                for backend in backends:
                    cases.append(
                        BenchCase(
                            "bench_fig5_datasize", solver, n_rows, backend
                        )
                    )
    return cases


def build_system(
    n_rows: int, seed: int = 7, synthetic: bool = False
) -> SetSystem:
    """The benchmark instance: pattern sets over an LBL-style trace, or
    the synthetic interval instance for universes beyond the generator
    (``synthetic=True``; the ``xlarge`` scale)."""
    if synthetic:
        return build_synthetic_system(n_rows, seed=seed)
    from repro.datasets.registry import load_dataset
    from repro.patterns.pattern_sets import build_set_system

    table = load_dataset(f"lbl:{n_rows}@{seed}")
    return build_set_system(table, cost="count")


def build_synthetic_system(n_elements: int, seed: int = 7) -> SetSystem:
    """A synthetic instance for the 10^6-universe regime.

    ``m = max(64, n / 8000)`` wrap-around interval sets, each about
    ``n / 10`` elements wide with ±20% jitter. Intervals keep
    construction fast (``frozenset(range(...))`` stays in C) while still
    exercising the packed kernel's full-width word sweeps, and make the
    instance feasible by construction for the shared bench parameters:
    ten sets of width ~n/10 at random offsets cover well over
    ``s_hat = 0.5`` of the universe in expectation, and the greedy
    solvers pick near-disjoint ones.
    """
    import random

    rng = random.Random(seed)
    n_sets = max(64, n_elements // 8_000)
    base_width = max(1, n_elements // 10)
    benefits: list[frozenset[int]] = []
    costs: list[float] = []
    for _ in range(n_sets):
        width = max(1, int(base_width * rng.uniform(0.8, 1.2)))
        start = rng.randrange(n_elements)
        stop = start + width
        if stop <= n_elements:
            block = frozenset(range(start, stop))
        else:
            block = frozenset(range(start, n_elements)) | frozenset(
                range(stop - n_elements)
            )
        benefits.append(block)
        costs.append(float(len(block) // 1_000 + 1))
    return SetSystem.from_iterables(n_elements, benefits, costs)


def warm_system_caches(system: SetSystem, backends: Iterable[str]) -> None:
    """Build every per-system cache a timed run would otherwise pay for.

    Called once per workload instance before its first measurement.
    Warming used to lean on ``warmup=1``, but with ``warmup=0`` — or
    when a cache is shared across cells — the *first* cell of a workload
    paid the layout/canonical-key builds inside its timed loop and
    showed up as a cold-run outlier in committed baselines. Each
    backend warms only what its solvers read: the columnar layout and
    tie-break ranks for ``packed``, the canonical keys and CMC's sorted
    heap entries for ``set``.
    """
    if "set" in backends:
        from repro.core.cmc import _sorted_entries
        from repro.core.greedy_common import canonical_keys

        canonical_keys(system)
        _sorted_entries(system)
    if "packed" in backends:
        from repro.core.packed import canonical_ranks, packed_layout

        packed_layout(system)
        canonical_ranks(system)


def instance_lp_bound(system: SetSystem) -> float | None:
    """The LP lower bound for the shared bench parameters, or ``None``
    when the LP solver (scipy) is unavailable or the relaxation fails.
    Costs one LP solve — callers cache it per workload size."""
    try:
        from repro.core.lp_bound import lp_lower_bound

        bound = lp_lower_bound(system, k=BENCH_K, s_hat=BENCH_S_HAT)
    except Exception:
        return None
    if bound is None or bound <= 0:
        return None
    return float(bound)


def run_case(
    system: SetSystem,
    case: BenchCase,
    repeat: int,
    warmup: int,
    lp_bound: float | None = None,
) -> dict:
    """Measure one case; returns its report entry."""
    solver = _SOLVERS[case.solver]
    runs: list[float] = []
    result: CoverResult | None = None
    phases: dict[str, dict[str, float]] = {}
    for iteration in range(warmup + repeat):
        if iteration == 0 and warmup > 0:
            # Piggyback the per-phase trace capture on the first warmup
            # iteration: the tracing overhead never touches a timed run.
            with obs_trace.capture() as records:
                result = solver(system, case.backend)
            phases = phase_rollups(records)
            continue
        started = time.perf_counter()
        result = solver(system, case.backend)
        elapsed = time.perf_counter() - started
        if iteration >= warmup:
            runs.append(elapsed)
    if not phases:  # warmup == 0: one extra un-timed traced run
        with obs_trace.capture() as records:
            result = solver(system, case.backend)
        phases = phase_rollups(records)
    assert result is not None
    from repro.obs.profile import peak_rss_bytes

    # The comparison dict deliberately excludes runtime_seconds: work
    # counters must match across backends; wall time never does.
    metrics = {
        name: value
        for name, value in result.metrics.to_dict().items()
        if name != "runtime_seconds"
    }
    return {
        "workload": case.workload,
        "solver": case.solver,
        "backend": case.backend,
        "n_rows": case.n_rows,
        "shape": {
            "n_elements": system.n_elements,
            "n_sets": system.n_sets,
        },
        "median_seconds": statistics.median(runs),
        "runs": runs,
        "metrics": metrics,
        "phases": phases,
        # Process high-water RSS when this cell finished. ru_maxrss is
        # monotone within a run, but the matrix order is deterministic,
        # so same-position cells compare meaningfully across runs.
        "peak_rss_bytes": peak_rss_bytes(),
        "result": {
            "n_sets": result.n_sets,
            "total_cost": result.total_cost,
            "covered": result.covered,
            "feasible": result.feasible,
        },
        # Kept separate from "result" (the cross-backend equality probe):
        # quality adds derived fields like the LP ratio, which tests and
        # the --check gate consume on their own.
        "quality": compute_quality(
            result, k=BENCH_K, s_hat=BENCH_S_HAT, lp_bound=lp_bound
        ),
    }


def run_benchmarks(
    scale: str = "full",
    repeat: int = 3,
    warmup: int = 1,
    backends: Iterable[str] | None = None,
    name_filter: str | None = None,
    sizes: tuple[int, ...] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the benchmark matrix and return the report dict.

    Parameters
    ----------
    scale:
        ``"quick"`` (small sizes, CI smoke), ``"full"`` (paper sizes),
        ``"large"`` (n = 10^5, packed only), or ``"xlarge"``
        (synthetic n = 10^6, packed only).
    repeat / warmup:
        Timed iterations per case / un-timed cache-warming iterations.
    backends:
        Subset of :data:`BACKENDS` to measure. ``None`` (default) takes
        the scale's backend pool.
    name_filter:
        Substring filter on bench ids (``--filter``).
    sizes:
        Override the scale's workload sizes (tests use tiny ones).
    progress:
        Optional per-case callback (the CLI prints to stderr).
    """
    if repeat < 1:
        raise ValidationError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    if backends is not None:
        for backend in backends:
            if backend not in BACKENDS:
                raise ValidationError(
                    f"unknown backend {backend!r}; known: {list(BACKENDS)}"
                )
    cases = default_cases(scale, sizes=sizes, backends=backends)
    spec = _SCALES[scale]
    if name_filter:
        cases = [c for c in cases if name_filter in c.bench_id]
    synthetic = bool(spec.get("synthetic"))
    case_backends = tuple(dict.fromkeys(c.backend for c in cases))
    systems: dict[int, SetSystem] = {}
    lp_bounds: dict[int, float | None] = {}
    benchmarks: dict[str, dict] = {}
    for case in cases:
        if case.bench_id in benchmarks:
            continue
        system = systems.get(case.n_rows)
        if system is None:
            system = systems[case.n_rows] = build_system(
                case.n_rows, synthetic=synthetic
            )
            # Build every per-system cache up front so the first cell's
            # timed loop measures the solve, not the cache fills.
            warm_system_caches(system, case_backends)
            # One LP solve per workload size, shared by every cell on
            # it; skipped above the large-n cutoff (see LP_BOUND_MAX_ROWS).
            lp_bounds[case.n_rows] = (
                instance_lp_bound(system)
                if case.n_rows <= LP_BOUND_MAX_ROWS
                else None
            )
        entry = run_case(
            system,
            case,
            repeat=repeat,
            warmup=warmup,
            lp_bound=lp_bounds.get(case.n_rows),
        )
        benchmarks[case.bench_id] = entry
        if progress is not None:
            progress(
                f"{case.bench_id}: {entry['median_seconds'] * 1e3:.1f} ms"
            )
    return {
        "schema": SCHEMA,
        "scale": scale,
        "repeat": repeat,
        "warmup": warmup,
        "k": BENCH_K,
        "s_hat": BENCH_S_HAT,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
        "speedups": _speedups(cases, benchmarks),
    }


def _speedups(
    cases: list[BenchCase], benchmarks: dict[str, dict]
) -> dict[str, float]:
    """Packed speedup over set (set median / packed median) per
    workload; a workload missing either backend is skipped."""
    speedups: dict[str, float] = {}
    for case in cases:
        if case.speedup_id in speedups or case.backend != "packed":
            continue
        packed = benchmarks.get(case.bench_id)
        reference = benchmarks.get(
            BenchCase(case.workload, case.solver, case.n_rows, "set").bench_id
        )
        if not (packed and reference and packed["median_seconds"]):
            continue
        speedups[case.speedup_id] = (
            reference["median_seconds"] / packed["median_seconds"]
        )
    return speedups


def compare_reports(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    quality_tolerance: float = DEFAULT_QUALITY_TOLERANCE,
    memory_tolerance: float = DEFAULT_MEMORY_TOLERANCE,
) -> tuple[list[dict], list[str]]:
    """Tolerance-check a report against a baseline, on speed AND quality.

    Returns ``(regressions, missing)``: each regression records the
    bench id, a ``kind`` (``"runtime"``, ``"quality"``,
    ``"feasibility"``, or ``"memory"``), both values, and the ratio;
    ``missing`` lists baseline benchmarks the current report did not run
    (filtered out or a renamed matrix) so CI can surface them without
    failing the build.

    Runtime uses the generous ``tolerance`` (machines jitter); the
    approximation ratio uses the tight ``quality_tolerance`` (answers
    don't), and a cell that turns infeasible where the baseline was
    feasible always regresses. Per-cell peak RSS gates with
    ``memory_tolerance`` — RSS is a lifetime high-water mark, but the
    matrix order is deterministic, so same-position cells compare
    meaningfully. Baselines predating quality/memory telemetry (no
    ``quality`` / ``peak_rss_bytes`` keys) gate on runtime only.
    """
    if tolerance <= 1.0:
        raise ValidationError(
            f"tolerance must be > 1.0, got {tolerance}"
        )
    if quality_tolerance <= 1.0:
        raise ValidationError(
            f"quality tolerance must be > 1.0, got {quality_tolerance}"
        )
    if memory_tolerance <= 1.0:
        raise ValidationError(
            f"memory tolerance must be > 1.0, got {memory_tolerance}"
        )
    regressions: list[dict] = []
    missing: list[str] = []
    current_benchmarks = current.get("benchmarks", {})
    for bench_id, base in baseline.get("benchmarks", {}).items():
        entry = current_benchmarks.get(bench_id)
        if entry is None:
            missing.append(bench_id)
            continue
        base_median = base["median_seconds"]
        median = entry["median_seconds"]
        if base_median > 0 and median > tolerance * base_median:
            regressions.append(
                {
                    "kind": "runtime",
                    "bench_id": bench_id,
                    "median_seconds": median,
                    "baseline_seconds": base_median,
                    "ratio": median / base_median,
                }
            )
        base_quality = base.get("quality") or {}
        quality = entry.get("quality") or {}
        base_ratio = base_quality.get("approx_ratio")
        ratio = quality.get("approx_ratio")
        if (
            base_ratio is not None
            and ratio is not None
            and base_ratio > 0
            and ratio > quality_tolerance * base_ratio
        ):
            regressions.append(
                {
                    "kind": "quality",
                    "bench_id": bench_id,
                    "approx_ratio": ratio,
                    "baseline_ratio": base_ratio,
                    "ratio": ratio / base_ratio,
                }
            )
        if base_quality.get("feasible") and quality and not quality.get(
            "feasible"
        ):
            regressions.append(
                {
                    "kind": "feasibility",
                    "bench_id": bench_id,
                    "feasible": False,
                    "baseline_feasible": True,
                }
            )
        base_rss = base.get("peak_rss_bytes")
        rss = entry.get("peak_rss_bytes")
        if base_rss and rss and rss > memory_tolerance * base_rss:
            regressions.append(
                {
                    "kind": "memory",
                    "bench_id": bench_id,
                    "peak_rss_bytes": rss,
                    "baseline_rss_bytes": base_rss,
                    "ratio": rss / base_rss,
                }
            )
    return regressions, missing


def history_entry(report: dict, wall_time_unix: float | None = None) -> dict:
    """Condense one report into a BENCH_history.jsonl line.

    The history keeps only what trends need — per-cell median, quality
    ratio, coverage slack, feasibility, and the packed-over-set speedups —
    so the file stays a few hundred bytes per run and a year of CI
    appends is still instantly loadable by the dashboard.
    """
    cells = []
    for bench_id, entry in report.get("benchmarks", {}).items():
        quality = entry.get("quality") or {}
        cells.append(
            {
                "bench_id": bench_id,
                "median_seconds": entry.get("median_seconds"),
                "approx_ratio": quality.get("approx_ratio"),
                "coverage_slack": quality.get("coverage_slack"),
                "feasible": quality.get("feasible"),
            }
        )
    return {
        "schema": HISTORY_SCHEMA,
        "wall_time_unix": (
            time.time() if wall_time_unix is None else wall_time_unix
        ),
        "scale": report.get("scale"),
        "python": report.get("python"),
        "cells": cells,
        "speedups": report.get("speedups", {}),
    }


def append_history(report: dict, path: str | Path) -> dict:
    """Append one history line for ``report``; returns the entry."""
    entry = history_entry(report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return entry


def render_report(report: dict) -> str:
    """Human-readable summary of a report dict."""
    lines = [
        f"scale={report['scale']} repeat={report['repeat']} "
        f"warmup={report['warmup']} k={report['k']} "
        f"s_hat={report['s_hat']:g}",
        "",
        f"{'benchmark':58s} {'median':>10s}  shape",
    ]
    for bench_id, entry in report["benchmarks"].items():
        shape = entry["shape"]
        lines.append(
            f"{bench_id:58s} {entry['median_seconds'] * 1e3:8.1f} ms"
            f"  n={shape['n_elements']} m={shape['n_sets']}"
        )
    if report["speedups"]:
        lines.append("")
        lines.append("packed speedup over set backend (median/median):")
        for speedup_id, ratio in report["speedups"].items():
            lines.append(f"  {speedup_id:56s} {ratio:6.2f}x")
    quality_lines = []
    for bench_id, entry in report["benchmarks"].items():
        quality = entry.get("quality") or {}
        ratio = quality.get("approx_ratio")
        slack = quality.get("coverage_slack")
        if ratio is None and slack is None:
            continue
        ratio_part = "ratio      –" if ratio is None else f"ratio {ratio:6.3f}"
        slack_part = "" if slack is None else f"  cov_slack {slack:+.4f}"
        feasible_part = "" if quality.get("feasible") else "  INFEASIBLE"
        quality_lines.append(
            f"  {bench_id:56s} {ratio_part}{slack_part}{feasible_part}"
        )
    if quality_lines:
        lines.append("")
        lines.append("quality (cost / LP lower bound):")
        lines.extend(quality_lines)
    return "\n".join(lines)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Register ``scwsc bench`` flags (shared with the shim's parser)."""
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="full",
        help="workload scale (default: full)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scale quick (the CI smoke matrix)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timed iterations per benchmark (default: 3)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="un-timed cache-warming iterations per benchmark (default: 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("all",) + BACKENDS,
        default="all",
        help="marginal-tracker backend(s) to measure: 'all' (default) "
        "takes the scale's backend pool, or one backend by name",
    )
    parser.add_argument(
        "--filter",
        dest="name_filter",
        default=None,
        metavar="SUBSTR",
        help="only run benchmarks whose id contains this substring",
    )
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        help=f"write the JSON report here (default: {DEFAULT_OUT}; "
        "'-' to skip the file)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline report for --check "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when any benchmark's median exceeds "
        "tolerance x its baseline median",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="regression factor for --check "
        f"(default: {DEFAULT_TOLERANCE:g})",
    )
    parser.add_argument(
        "--quality-tolerance",
        type=float,
        default=DEFAULT_QUALITY_TOLERANCE,
        help="approximation-ratio regression factor for --check "
        f"(default: {DEFAULT_QUALITY_TOLERANCE:g})",
    )
    parser.add_argument(
        "--memory-tolerance",
        type=float,
        default=DEFAULT_MEMORY_TOLERANCE,
        help="per-cell peak-RSS regression factor for --check "
        f"(default: {DEFAULT_MEMORY_TOLERANCE:g})",
    )
    parser.add_argument(
        "--history",
        default=str(DEFAULT_HISTORY),
        metavar="PATH",
        help="append one trend line per run to this JSONL file "
        f"(default: {DEFAULT_HISTORY}; used by `scwsc report`)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append to the bench history file",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span/event trace of the bench run to PATH "
        "(adds tracing overhead to timed runs; see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run (per-phase cProfile + tracemalloc); "
        "profile records land in the --trace file when one is set",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute ``scwsc bench`` from parsed arguments."""
    scale = "quick" if args.quick else args.scale
    # getattr default: hand-built Namespaces predating the packed
    # backend pick the scale's own pool, like the CLI default.
    backend_arg = getattr(args, "backend", "all")
    backends = None if backend_arg == "all" else (backend_arg,)
    report = run_benchmarks(
        scale=scale,
        repeat=args.repeat,
        warmup=args.warmup,
        backends=backends,
        name_filter=args.name_filter,
        progress=lambda line: print(f"bench: {line}", file=sys.stderr),
    )
    print(render_report(report))
    if args.out != "-":
        out_path = Path(args.out)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"bench: report written to {out_path}", file=sys.stderr)
    # getattr defaults: tests drive this with hand-built Namespaces that
    # predate the history/quality flags.
    history_path = getattr(args, "history", str(DEFAULT_HISTORY))
    if not getattr(args, "no_history", False) and history_path != "-":
        append_history(report, history_path)
        print(
            f"bench: history appended to {history_path}", file=sys.stderr
        )
    if not args.check:
        return 0
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        raise ValidationError(
            f"--check: baseline {baseline_path} does not exist; generate "
            "one with `scwsc bench --quick --out "
            f"{baseline_path}`"
        )
    baseline = json.loads(baseline_path.read_text())
    regressions, missing = compare_reports(
        report,
        baseline,
        tolerance=args.tolerance,
        quality_tolerance=getattr(
            args, "quality_tolerance", DEFAULT_QUALITY_TOLERANCE
        ),
        memory_tolerance=getattr(
            args, "memory_tolerance", DEFAULT_MEMORY_TOLERANCE
        ),
    )
    for bench_id in missing:
        print(
            f"bench: note: baseline benchmark {bench_id} was not run",
            file=sys.stderr,
        )
    if regressions:
        print(
            f"bench: {len(regressions)} regression(s):",
            file=sys.stderr,
        )
        for regression in regressions:
            kind = regression.get("kind", "runtime")
            if kind == "runtime":
                detail = (
                    f"{regression['median_seconds'] * 1e3:.1f} ms vs "
                    f"baseline {regression['baseline_seconds'] * 1e3:.1f} ms "
                    f"({regression['ratio']:.2f}x, tolerance "
                    f"{args.tolerance:g}x)"
                )
            elif kind == "quality":
                detail = (
                    f"approx ratio {regression['approx_ratio']:.4f} vs "
                    f"baseline {regression['baseline_ratio']:.4f} "
                    f"({regression['ratio']:.2f}x)"
                )
            elif kind == "memory":
                detail = (
                    f"peak RSS {regression['peak_rss_bytes'] / 2**20:.0f} "
                    f"MiB vs baseline "
                    f"{regression['baseline_rss_bytes'] / 2**20:.0f} MiB "
                    f"({regression['ratio']:.2f}x)"
                )
            else:
                detail = "infeasible result; baseline was feasible"
            print(
                f"  [{kind}] {regression['bench_id']}: {detail}",
                file=sys.stderr,
            )
        return 1
    print(
        f"bench: no regressions beyond {args.tolerance:g}x runtime / "
        f"{getattr(args, 'quality_tolerance', DEFAULT_QUALITY_TOLERANCE):g}x "
        f"quality (baseline {baseline_path})",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python benchmarks/harness.py``)."""
    parser = argparse.ArgumentParser(
        prog="scwsc-bench",
        description="benchmark regression harness for the scwsc solvers",
    )
    add_bench_arguments(parser)
    args = parser.parse_args(argv)
    if args.trace:
        obs_trace.configure(args.trace, command="bench")
    if args.profile:
        from repro.obs import profile as obs_profile

        obs_profile.start()
    try:
        return run_from_args(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    finally:
        if args.profile:
            from repro.obs import profile as obs_profile

            obs_profile.stop()
        if args.trace:
            from repro.obs.metrics import get_registry

            obs_trace.shutdown(get_registry().snapshot())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
