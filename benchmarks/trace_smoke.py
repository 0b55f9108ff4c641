#!/usr/bin/env python
"""CI trace-smoke: a tiny end-to-end exercise of ``--trace``.

Generates a small LBL-style CSV, runs ``scwsc solve --trace`` in-process
(default CWSC and ``--algorithm cmc``) and pool-isolated, then checks that

1. every record in each trace file validates against ``scwsc-trace/1``
   (:mod:`repro.obs.schema`);
2. the in-process traces contain solver spans (``solve``/``select``), and
   the CMC one the lattice path's ``budget_round`` spans;
3. the isolated trace interleaves pool lifecycle events
   (``worker_spawn``/``dispatch``/``request_complete``) with replayed
   worker solver spans carrying ``request_id``;
4. ``scwsc trace summarize`` renders a per-phase rollup.

Exit 0 on success; non-zero with a message on the first failure. CI
uploads the trace files as artifacts so a red run is diagnosable.

Usage::

    python benchmarks/trace_smoke.py [OUT_DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.datasets.registry import load_dataset
from repro.obs.report import load_trace, phase_rollups, summarize_file
from repro.obs.schema import validate_trace_file

ATTRIBUTES = "protocol,localhost,remotehost,endstate,flags"


def fail(message: str) -> None:
    print(f"trace-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        fail(f"`scwsc {' '.join(argv)}` exited {code}")


def check_valid(path: Path) -> list[dict]:
    problems = validate_trace_file(str(path), strict=True)
    if problems:
        for problem in problems[:20]:
            print(f"trace-smoke: {path}: {problem}", file=sys.stderr)
        fail(f"{path} has {len(problems)} schema problem(s)")
    return load_trace(str(path))


def check_phases(path: Path, phases: tuple[str, ...]) -> None:
    rollups = phase_rollups(check_valid(path))
    for phase in phases:
        if phase not in rollups:
            fail(f"{path} has no {phase!r} spans; got {sorted(rollups)}")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("trace-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "smoke.csv"
    load_dataset("lbl:300@7").to_csv(csv_path)

    # 1. In-process solve.
    solve_trace = out_dir / "solve.jsonl"
    run_cli(
        [
            "solve", str(csv_path),
            "--attributes", ATTRIBUTES,
            "--measure", "duration",
            "-k", "4", "-s", "0.6",
            "--trace", str(solve_trace),
        ]
    )
    check_phases(solve_trace, ("solve", "select"))

    # 2. In-process optimized CMC: budget rounds on the lattice path.
    cmc_trace = out_dir / "solve-cmc.jsonl"
    run_cli(
        [
            "solve", str(csv_path),
            "--attributes", ATTRIBUTES,
            "--measure", "duration",
            "-k", "4", "-s", "0.6",
            "--algorithm", "cmc",
            "--trace", str(cmc_trace),
        ]
    )
    check_phases(cmc_trace, ("budget_round", "select"))

    # 3. Pool-isolated solve: lifecycle events + replayed worker spans.
    isolate_trace = out_dir / "isolate.jsonl"
    run_cli(
        [
            "solve", str(csv_path),
            "--attributes", ATTRIBUTES,
            "--measure", "duration",
            "-k", "4", "-s", "0.6",
            "--timeout", "60", "--isolate",
            "--trace", str(isolate_trace),
        ]
    )
    records = check_valid(isolate_trace)
    events = {r["name"] for r in records if r.get("type") == "event"}
    for name in ("worker_spawn", "dispatch", "request_complete"):
        if name not in events:
            fail(f"{isolate_trace} missing pool event {name!r}; got {sorted(events)}")
    worker_spans = [
        r
        for r in records
        if r.get("type") == "span"
        and r.get("attrs", {}).get("request_id") is not None
    ]
    if not worker_spans:
        fail(f"{isolate_trace} has no replayed worker spans with request_id")

    # 4. The summarizer renders.
    summary = summarize_file(str(solve_trace))
    if "phase rollup" not in summary:
        fail("summarize produced no phase rollup")
    print(summary)
    print(f"trace-smoke: ok ({solve_trace}, {cmc_trace}, {isolate_trace})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
