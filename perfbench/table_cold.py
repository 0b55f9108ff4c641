"""``table-cold``: a fresh pattern table in, checked answers out.

Each op loads a new 6 000-row LBL table and answers it two ways: the
CLI's default lattice-pruned path (``optimized_cwsc``, then
``optimized_cmc`` with b = 1, eps = 1) and the enumeration path
(``build_set_system``, the layout for the backend ``resolve_backend``
picks, ``cwsc`` and ``cmc``, each answer through ``verify_result``).
Set-up is importing the solver stack in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import random
import subprocess
import sys
import time

from benchlib import (
    Spans,
    Verdict,
    check_pattern_answer,
    check_verified,
    layer_self_seconds,
    layout_bytes,
    mean,
    own_peak_rss_mb,
    solver_counts,
)

ROWS = 6_000
K = 10
S_HAT = 0.5
CMC_B = 1.0
CLI_EPS = 1.0
MIN_OPS = 3
IMPORT_REPEATS = 3

#: The modules an op needs; importing them in a fresh interpreter is
#: this workload's set-up.
STACK = ("repro.bench", "repro.core", "repro.datasets", "repro.patterns")


def _import_seconds(env: dict, cwd: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(STACK)],
        env=env, cwd=cwd, check=True,
    )
    return time.perf_counter() - start


def _op(spans: Spans, spec: str, op_id):
    from repro.bench import warm_system_caches
    from repro.core import cmc, cwsc, verify_result
    from repro.core.marginal import resolve_backend
    from repro.datasets import load_dataset
    from repro.patterns import build_set_system, optimized_cmc, optimized_cwsc

    span = spans.span
    start = time.perf_counter()
    with span("op", op_id):
        with span("datasets.load", op_id):
            table = load_dataset(spec)
        with span("patterns.optimized_cwsc", op_id):
            ocwsc = optimized_cwsc(
                table, K, S_HAT, cost="max", on_infeasible="full_cover"
            )
        with span("patterns.optimized_cmc", op_id):
            ocmc = optimized_cmc(
                table, K, S_HAT, b=CMC_B, cost="max", eps=CLI_EPS
            )
        with span("patterns.build_set_system", op_id):
            system = build_set_system(table, "max")
        with span("core.layout", op_id):
            backend = resolve_backend(system)
            warm_system_caches(system, [backend])
        with span("core.cwsc", op_id):
            ecwsc = cwsc(system, K, S_HAT)
        with span("core.cmc", op_id):
            ecmc = cmc(system, K, S_HAT, b=CMC_B)
        with span("core.verify", op_id):
            verified = [verify_result(system, r) for r in (ecwsc, ecmc)]
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "table": table,
        "optimized": (ocwsc, ocmc),
        "enumerated": (ecwsc, ecmc),
        "verified": verified,
        "n_sets": system.n_sets,
        "backend": backend,
        "layout_bytes": layout_bytes(system, backend),
    }


def _verdict(record) -> Verdict:
    ocwsc, ocmc = record["optimized"]
    ecwsc, ecmc = record["enumerated"]
    table = record["table"]
    return (
        check_pattern_answer(table, ocwsc, K, S_HAT)
        + check_pattern_answer(table, ocmc, K, S_HAT, eps=CLI_EPS)
        + check_verified(record["verified"][0], ecwsc, K, S_HAT)
        + check_verified(record["verified"][1], ecmc, K, S_HAT)
    )


def run(seed: int, seconds: float, trace: bool, env: dict, root: str) -> dict:
    for module in STACK:  # the first op must not pay for imports
        importlib.import_module(module)
    setup = [_import_seconds(env, root)
             for _ in range(1 if trace else IMPORT_REPEATS)]
    rng = random.Random(seed)
    spans, plain = Spans(enabled=trace), Spans(enabled=False)
    records, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        spec = f"lbl:{ROWS}@{rng.randrange(1, 2**31)}"
        attempted += 1
        try:
            record = _op(plain, spec, attempted)
            if trace:
                traced.append(_op(spans, spec, attempted))
        except Exception as error:  # noqa: BLE001 - any failure is counted
            failures.append(f"{spec}: {type(error).__name__}: {error}")
            continue
        records.append(record)
    window = time.perf_counter() - start
    return _summarize(records, traced, spans, failures, attempted, setup,
                      window)


def _summarize(records, traced, spans, failures, attempted, setup, window):
    verdicts = [_verdict(record) for record in records]
    answers = [
        result.total_cost
        for record in records
        for result in record["optimized"] + record["enumerated"]
    ]
    outcome = {
        "setup": setup,
        "latencies": [r["wall"] for r in records],
        "window": window,
        "attempted": attempted,
        "failed": len(failures) + sum(v.failed for v in verdicts),
        "wrong": [p for v in verdicts for p in v.false_claims],
        "breaches": failures + [p for v in verdicts for p in v.failures],
        "answer_costs": answers,
        "peak_rss_mb": own_peak_rss_mb(),
        "shape": {
            "n_elements": ROWS,
            "n_sets": mean([r["n_sets"] for r in records]),
            "backend": sorted({r["backend"] for r in records}),
            "body_bytes": 0,
            "reuse_share": 0.0,
        },
    }
    if spans.enabled:
        outcome["layers"] = _layers(records, traced, spans)
        outcome["spans"] = spans
    return outcome


def _layers(records, traced, spans) -> dict:
    n = len(traced)
    self_s = layer_self_seconds(spans.records, n)
    enumerated = [res for r in traced for res in r["enumerated"]]
    optimized = [res for r in traced for res in r["optimized"]]
    layers = {
        "datasets.load_s": self_s.get("datasets.load", 0.0),
        "patterns.build_set_system_s": self_s.get(
            "patterns.build_set_system", 0.0
        ),
        "patterns.sets_built": mean([r["n_sets"] for r in traced]),
        "patterns.optimized_cwsc_s": self_s.get("patterns.optimized_cwsc", 0.0),
        "patterns.optimized_cmc_s": self_s.get("patterns.optimized_cmc", 0.0),
        "patterns.optimized_sets_considered": sum(
            r.metrics.sets_considered for r in optimized
        ) / max(1, n),
        "core.layout_s": self_s.get("core.layout", 0.0),
        "core.layout_bytes": mean([r["layout_bytes"] for r in traced]),
        "core.cwsc_s": self_s.get("core.cwsc", 0.0),
        "core.cmc_s": self_s.get("core.cmc", 0.0),
        "core.verify_s": self_s.get("core.verify", 0.0),
    }
    layers.update(solver_counts(enumerated, n))
    untraced = mean([r["wall"] for r in records[: len(traced)]])
    layer_sum = sum(v for name, v in self_s.items() if name != "op")
    layers["obs.layer_sum_share"] = layer_sum / untraced if untraced else 0.0
    layers["obs.trace_overhead_ratio"] = (
        mean([r["wall"] for r in traced]) / untraced - 1.0 if untraced else 0.0
    )
    return layers
