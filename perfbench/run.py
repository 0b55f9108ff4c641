#!/usr/bin/env python3
"""End-to-end benchmark: pattern tables and ``/solve`` bodies in, checked
answers out, timed whole and split by layer.

Run from the root of a source checkout (the solver stack is imported
from ``src/``)::

    python3 perfbench/run.py --workload table-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer split instead. The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report
(shape, tail percentile with its sample count, failure details). Spans
of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

from benchlib import mean, median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {
    "table-cold": "table_cold",
    "solve-sweep": "solve_sweep",
    "serve-solve": "serve_solve",
}

#: Environment that would change what is measured: a forced backend or
#: injected faults.
REFUSED_ENV = ("REPRO_SETCOVER_BACKEND", "REPRO_CHAOS")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_ops": "1/s",
    "peak_rss_mb": "MiB",
    "answer_cost": "cost",
}

#: Every per-layer metric, in every traced run; a layer a workload
#: bypasses reads 0.
PER_LAYER = {
    "datasets.load_s": "s",
    "patterns.build_set_system_s": "s",
    "patterns.sets_built": "count",
    "patterns.optimized_cwsc_s": "s",
    "patterns.optimized_cmc_s": "s",
    "patterns.optimized_sets_considered": "count",
    "core.layout_s": "s",
    "core.layout_bytes": "bytes",
    "core.cwsc_s": "s",
    "core.cmc_s": "s",
    "core.cmc_epsilon_s": "s",
    "core.sets_considered": "count",
    "core.marginal_updates": "count",
    "core.selections": "count",
    "core.budget_rounds": "count",
    "core.useful_selection_ratio": "ratio",
    "core.verify_s": "s",
    "resilience.pool.codec_s": "s",
    "resilience.pool.queue_s": "s",
    "resilience.pool.solve_s": "s",
    "resilience.pool.requeue_s": "s",
    "resilience.pool.requeues_per_request": "count",
    "resilience.chain.routed_around_share": "ratio",
    "resilience.chain.fallback_share": "ratio",
    "resilience.chain.answered_by.exact": "ratio",
    "resilience.chain.answered_by.lp_rounding": "ratio",
    "resilience.chain.answered_by.cwsc": "ratio",
    "resilience.chain.answered_by.cmc": "ratio",
    "resilience.chain.answered_by.universal": "ratio",
    "serve.overhead_s": "s",
    "serve.body_mb": "MB",
    "serve.shed_ratio": "ratio",
    "serve.reuse_share": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.layer_sum_share": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(outcome: dict) -> tuple[dict, dict]:
    """The gated metrics plus the report-only ones (p90, fail ratio)."""
    latencies = outcome["latencies"]
    p90 = tail_percentile(latencies, 0.90)
    gated = {
        "setup_s": median(outcome["setup"]),
        "latency_p50_s": median(latencies),
        "throughput_ops": (
            len(latencies) / outcome["window"] if outcome["window"] else 0.0
        ),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "answer_cost": mean(outcome["answer_costs"]),
    }
    report_only = {
        "latency_p90_s": {"value": p90["value"], "unit": "s",
                          "samples": p90["samples"], "beyond": p90["beyond"]},
        "fail_ratio": {
            "value": outcome["failed"] / max(1, outcome["attempted"]),
            "unit": "ratio",
        },
    }
    return gated, report_only


def write_spans(spans, workload: str, seed: int) -> Path:
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as handle:
        for record in spans.records:
            handle.write(json.dumps(record) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no solver sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    trace = bool(args.trace)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    workload = importlib.import_module(WORKLOADS[args.workload])
    # Only the daemon needs a place for its own trace file.
    kwargs = {"out_dir": OUT_DIR} if args.workload == "serve-solve" else {}
    outcome = workload.run(args.seed, args.seconds, trace, env, str(ROOT),
                           **kwargs)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": outcome["shape"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "false_claims": outcome["wrong"][:20],
        "failures": outcome["breaches"][:20],
    }
    if trace:
        layers = outcome["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        report["spans_file"] = str(
            write_spans(outcome["spans"], args.workload, args.seed)
            .relative_to(ROOT)
        )
    else:
        gated, report_only = end_to_end(outcome)
        metrics = {
            name: {"value": float(gated[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        report["report_only"] = report_only
    report["metrics"] = metrics
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not outcome["wrong"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
