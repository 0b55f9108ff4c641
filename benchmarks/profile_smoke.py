#!/usr/bin/env python
"""CI profile-smoke: end-to-end exercise of ``--profile`` + dashboard.

Generates a small LBL-style CSV, runs ``scwsc solve --profile --trace``,
then checks that

1. the trace validates against ``scwsc-trace/1`` including the new
   ``profile`` and ``quality`` record types;
2. the trace contains cProfile and memory profile records for the
   ``solve`` scope, plus a parent peak-RSS sample;
3. ``scwsc trace flamegraph`` exports non-empty collapsed stacks;
4. ``scwsc report TRACE -o report.html`` renders the self-contained
   dashboard with its waterfall / self-time / quality / profile panels.

Exit 0 on success; non-zero with a message on the first failure. CI
uploads the rendered ``report.html`` as an artifact.

Usage::

    python benchmarks/profile_smoke.py [OUT_DIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.datasets.registry import load_dataset
from repro.obs.report import load_trace
from repro.obs.schema import validate_trace_file

ATTRIBUTES = "protocol,localhost,remotehost,endstate,flags"


def fail(message: str) -> None:
    print(f"profile-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        fail(f"`scwsc {' '.join(argv)}` exited {code}")


def main() -> int:
    out_dir = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else Path("profile-smoke")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "smoke.csv"
    load_dataset("lbl:300@7").to_csv(csv_path)

    # 1. Profiled, traced solve.
    trace_path = out_dir / "profiled.jsonl"
    run_cli(
        [
            "solve", str(csv_path),
            "--attributes", ATTRIBUTES,
            "--measure", "duration",
            "-k", "4", "-s", "0.6",
            "--profile",
            "--trace", str(trace_path),
        ]
    )
    problems = validate_trace_file(str(trace_path))
    if problems:
        for problem in problems[:20]:
            print(f"profile-smoke: {trace_path}: {problem}", file=sys.stderr)
        fail(f"{trace_path} has {len(problems)} schema problem(s)")
    records = load_trace(str(trace_path))
    kinds = {
        (r.get("profile_kind"), r.get("scope"))
        for r in records
        if r.get("type") == "profile"
    }
    for expected in (("cprofile", "solve"), ("memory", "solve"), ("rss", "process")):
        if expected not in kinds:
            fail(f"{trace_path} missing profile record {expected}; got {sorted(kinds)}")
    if not any(r.get("type") == "quality" for r in records):
        fail(f"{trace_path} has no quality record")

    # 2. Flamegraph export.
    collapsed_path = out_dir / "profiled.collapsed"
    run_cli(
        ["trace", "flamegraph", str(trace_path), "-o", str(collapsed_path)]
    )
    stacks = collapsed_path.read_text().splitlines()
    if not stacks:
        fail("flamegraph export produced no stacks")
    if not any(line.startswith("cpu:solve;") for line in stacks):
        fail("flamegraph export has no cProfile-derived cpu: stacks")

    # 3. Dashboard render.
    report_path = out_dir / "report.html"
    run_cli(["report", str(trace_path), "-o", str(report_path)])
    html = report_path.read_text()
    for panel in ("waterfall", "self-time", "quality", "profile"):
        if f'id="{panel}"' not in html:
            fail(f"report.html missing panel id={panel!r}")
    if "<script src=" in html or "http://" in html or "https://" in html.replace(
        "https://www.w3.org", ""
    ):
        fail("report.html is not self-contained (external reference found)")

    print(f"profile-smoke: ok ({trace_path}, {report_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
