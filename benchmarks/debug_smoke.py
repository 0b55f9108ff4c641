#!/usr/bin/env python
"""CI debug-smoke: kill a pool worker under a live daemon, get a bundle.

The flight-recorder acceptance scenario, end to end through public
surfaces only:

1. boot ``scwsc serve`` with ``--postmortem-dir``, send healthy solves
   so the rings (spans, access, worker rings) carry real evidence;
2. SIGKILL the daemon's pool worker mid-service and keep a trickle of
   traffic going so the supervisor notices immediately;
3. wait for exactly one ``worker_death`` bundle in the spool, check it
   carries ring-buffer spans, pool events (including ``worker_death``),
   sampled stacks, and a metrics snapshot;
4. validate the bundle through the public CLI (``scwsc debug validate``
   then ``scwsc debug inspect``), plus ``/debug/vars`` and
   ``/debug/flightrec`` over HTTP while the daemon is still up;
5. render the bundle into the run dashboard (``scwsc report
   --postmortem``).

Exit 0 on success; non-zero with a message on the first failure. CI
uploads the output directory (bundles + dashboard) as an artifact.

Usage::

    python benchmarks/debug_smoke.py [OUT_DIR]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from serve_smoke import Daemon, fail, solve_payload  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402
from repro.obs.postmortem import validate_bundle_file  # noqa: E402

BUNDLE_WAIT = 60.0


def worker_pids(daemon_pid: int) -> list[int]:
    """Child PIDs of the daemon — its pool workers (/proc scan; CI is
    Linux). The dispatcher is a thread, so every child is a worker."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == daemon_pid:
            pids.append(int(entry))
    return sorted(pids)


def wait_for_bundle(spool: Path, daemon) -> Path:
    deadline = time.monotonic() + BUNDLE_WAIT
    while time.monotonic() < deadline:
        bundles = sorted(spool.glob("postmortem-*worker_death*.json"))
        if bundles:
            return bundles[0]
        # keep a trickle of traffic so the supervisor polls its children
        daemon.request("/healthz")
        time.sleep(0.3)
    fail(f"no worker_death bundle in {spool} after {BUNDLE_WAIT:g}s")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("debug-smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    spool = out_dir / "postmortems"
    for stale in spool.glob("postmortem-*.json"):
        stale.unlink()
    system_payload = solve_payload()

    daemon = Daemon(
        out_dir,
        "debug-smoke",
        ["--postmortem-dir", str(spool), "--postmortem-interval", "60"],
    )
    try:
        # Healthy traffic first: the rings must hold real spans, access
        # records, and shipped worker rings *before* the incident.
        for index in range(4):
            code, body, _ = daemon.request(
                "/solve",
                {"system": system_payload, "k": 4, "s": 0.5,
                 "tag": f"warm{index}"},
            )
            if code != 200 or body.get("status") != "ok":
                fail(f"warmup solve {index} answered {code}/{body.get('status')}")

        pids = worker_pids(daemon.proc.pid)
        if not pids:
            fail("no pool worker process found under the daemon")
        os.kill(pids[0], signal.SIGKILL)
        print(f"debug-smoke: killed worker pid {pids[0]}")
        daemon.request(
            "/solve", {"system": system_payload, "k": 4, "s": 0.5}
        )

        bundle_path = wait_for_bundle(spool, daemon)

        # The daemon's own introspection surface while it is still up.
        code, flightrec, _ = daemon.request("/debug/flightrec")
        if code != 200 or not flightrec.get("armed"):
            fail(f"/debug/flightrec broken: {code} {flightrec}")
        counts = flightrec["triggers"]["counts"]["worker_death"]
        if counts["fired"] != 1:
            fail(f"expected exactly one worker_death firing, got {counts}")
        if bundle_path.name not in flightrec["spool"]["bundles"]:
            fail(f"{bundle_path.name} missing from /debug/flightrec spool")
        code, debug_vars, _ = daemon.request("/debug/vars")
        if code != 200 or not debug_vars.get("build", {}).get("version"):
            fail(f"/debug/vars broken: {code}")

        exit_code = daemon.terminate()
        if exit_code != 0:
            fail(f"daemon exited {exit_code} on SIGTERM")
    finally:
        daemon.kill()

    death_bundles = sorted(spool.glob("postmortem-*worker_death*.json"))
    if len(death_bundles) != 1:
        fail(f"expected exactly one worker_death bundle, got "
             f"{[p.name for p in death_bundles]}")

    # Library-level validation plus the contents the scenario demands.
    bundle = validate_bundle_file(str(bundle_path))
    rings = bundle["rings"]
    if not rings["spans"]["records"]:
        fail("bundle has no ring-buffer spans")
    event_names = {r.get("name") for r in rings["events"]["records"]}
    if "worker_death" not in event_names:
        fail(f"bundle events missing worker_death: {sorted(event_names)}")
    if not bundle["stacks"]["samples"] or not bundle["stacks"]["collapsed"]:
        fail("bundle has no sampled stacks")
    if not rings["metrics"]["records"] or not bundle["metrics"]:
        fail("bundle has no metrics snapshot")
    if not bundle["workers"]:
        fail("bundle has no shipped worker ring")
    if bundle["build"]["backend"] != "packed":
        fail(f"bundle build.backend is {bundle['build']['backend']!r}")

    # The public CLI must agree.
    if cli_main(["debug", "validate", str(bundle_path)]) != 0:
        fail("scwsc debug validate rejected the bundle")
    if cli_main(["debug", "inspect", str(bundle_path)]) != 0:
        fail("scwsc debug inspect failed")

    report_path = out_dir / "debug-report.html"
    code = cli_main(
        ["report", str(out_dir / "debug-smoke.jsonl"), "-o",
         str(report_path), "--title", "debug-smoke",
         "--postmortem", str(spool)]
    )
    if code != 0 or not report_path.exists():
        fail(f"dashboard render exited {code}")

    print(f"debug-smoke: ok ({bundle_path.name}, "
          f"{len(rings['spans']['records'])} spans, "
          f"{len(rings['events']['records'])} events, "
          f"{len(bundle['stacks']['samples'])} stack samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
