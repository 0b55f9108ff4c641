"""Command-line interface.

Subcommands:

* ``list`` — show the available paper experiments;
* ``run`` — regenerate a paper table/figure (or ``all`` of them);
* ``solve`` — run size-constrained weighted set cover on a CSV of
  records, optionally under a ``--timeout`` and/or resilient
  ``--fallback`` chain, or fully process-isolated with ``--isolate``
  (see docs/RESILIENCE.md);
* ``batch`` — execute a JSONL stream of solve requests against one CSV
  on the worker pool, emitting one JSONL result (with provenance) per
  request as it completes;
* ``trace`` — summarize (with per-phase self time), schema-validate, or
  flamegraph-export (span self time) a JSONL trace produced with
  ``--trace`` (available on ``run``, ``solve``, ``batch`` and ``serve``;
  see docs/OBSERVABILITY.md), or an access log written by
  ``serve --access-log``;
* ``report`` — with a trace argument, render the run dashboard: a
  single self-contained HTML file with the span waterfall, self-time
  table, quality panel and postmortem panel (``scwsc report run.jsonl
  -o report.html``); without one, regenerate the markdown
  experiment report as before;
* ``serve`` — run the fault-tolerant solver daemon: a warm supervised
  pool behind an HTTP front door with admission control, per-request
  deadlines, end-to-end request tracing, a JSONL access log of
  ``access`` trace records (``--access-log``), and SIGTERM graceful
  drain (see docs/SERVING.md).

Examples::

    scwsc list
    scwsc run fig5 --scale full
    scwsc run table4 --scale small
    scwsc solve data.csv --attributes Type,Location --measure Cost \\
        -k 2 -s 0.5625 --algorithm cwsc
    scwsc solve data.csv --attributes Type,Location -k 2 -s 0.5 \\
        --timeout 5 --fallback exact,cwsc,universal
    scwsc solve data.csv --attributes Type,Location -k 2 -s 0.5 \\
        --timeout 5 --isolate --memory-limit 512
    scwsc batch requests.jsonl --csv data.csv \\
        --attributes Type,Location --workers 4 --out results.jsonl

Failures map to documented exit codes (see :mod:`repro.errors`): 2 for
bad input, 3 for infeasible, 4 for a blown deadline, 5 for an
intractable pattern space, 6 for a transient backend failure, 7 for a
supervisor/worker protocol error; the message goes to stderr. An
interrupt (Ctrl-C) exits 130, and SIGTERM exits 143, both after
flushing whatever result lines were already complete —
SIGTERM gets the same drain-and-flush treatment as Ctrl-C instead of
killing the process mid-write.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.errors import ProtocolError, ReproError, ValidationError
from repro.experiments import available_experiments, run_experiment
from repro.patterns.costs import get_cost_function
from repro.patterns.optimized_cmc import optimized_cmc
from repro.patterns.optimized_cwsc import optimized_cwsc
from repro.patterns.table import PatternTable


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span/event trace of this run to PATH "
        "(inspect with `scwsc trace summarize`; see docs/OBSERVABILITY.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scwsc",
        description=(
            "Size-Constrained Weighted Set Cover (Golab et al., ICDE 2015) "
            "— reproduction toolkit"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the available paper experiments")

    run_parser = commands.add_parser(
        "run", help="regenerate a paper table/figure"
    )
    run_parser.add_argument(
        "experiment",
        help="experiment id from `scwsc list`, or `all`",
    )
    run_parser.add_argument(
        "--scale",
        choices=("small", "full"),
        default="full",
        help="workload scale (default: full)",
    )
    run_parser.add_argument(
        "--out",
        type=argparse.FileType("w"),
        default=None,
        help="also write the report to a file",
    )
    _add_trace_argument(run_parser)

    solve_parser = commands.add_parser(
        "solve", help="solve an instance from a CSV of records"
    )
    solve_parser.add_argument("csv", help="input CSV with a header row")
    solve_parser.add_argument(
        "--attributes",
        required=True,
        help="comma-separated pattern attribute columns",
    )
    solve_parser.add_argument(
        "--measure",
        default=None,
        help="numeric column for pattern costs (omit for count-based costs)",
    )
    solve_parser.add_argument(
        "-k", type=int, required=True, help="maximum number of patterns"
    )
    solve_parser.add_argument(
        "-s",
        "--coverage",
        type=float,
        required=True,
        help="required coverage fraction in [0, 1]",
    )
    solve_parser.add_argument(
        "--algorithm",
        choices=("cwsc", "cmc", "exact"),
        default="cwsc",
        help="cwsc: at most k patterns; cmc: up to (1+eps)k with bounds; "
        "exact: branch-and-bound optimum (small inputs only)",
    )
    solve_parser.add_argument(
        "--cost",
        default=None,
        help="cost function: max (default with a measure), sum, mean, "
        "count, l2",
    )
    solve_parser.add_argument(
        "-b", type=float, default=1.0, help="CMC budget growth factor"
    )
    solve_parser.add_argument(
        "--eps", type=float, default=1.0, help="CMC solution-size slack"
    )
    solve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget in seconds; the solve degrades through "
        "the resilient fallback chain instead of overrunning",
    )
    solve_parser.add_argument(
        "--fallback",
        nargs="?",
        const="default",
        default=None,
        metavar="CHAIN",
        help="solve via the resilient fallback chain; optionally a "
        "comma-separated stage list (exact, lp_rounding, cwsc, cmc, "
        "cmc_epsilon, universal). Bare --fallback uses the default "
        "chain",
    )
    solve_parser.add_argument(
        "--isolate",
        action="store_true",
        help="run the solve in a supervised worker process with a hard "
        "(SIGKILL-backed) timeout; worker death is retried and degraded "
        "instead of crashing",
    )
    solve_parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help="address-space headroom for the isolated worker "
        "(requires --isolate)",
    )
    solve_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON instead of text",
    )
    solve_parser.add_argument(
        "--sql",
        action="store_true",
        help="also print the solution as a SQL query over the input",
    )
    _add_trace_argument(solve_parser)

    batch_parser = commands.add_parser(
        "batch",
        help="run a JSONL stream of solve requests on the worker pool",
    )
    batch_parser.add_argument(
        "requests",
        help="JSONL file of requests ('-' for stdin); each line holds the "
        'fields of a /solve body, like {"k": 3, "s": 0.5, '
        '"solver": "resilient", "tag": "cell-1"}',
    )
    batch_parser.add_argument(
        "--csv", required=True, help="input CSV with a header row"
    )
    batch_parser.add_argument(
        "--attributes",
        required=True,
        help="comma-separated pattern attribute columns",
    )
    batch_parser.add_argument(
        "--measure",
        default=None,
        help="numeric column for pattern costs (omit for count-based costs)",
    )
    batch_parser.add_argument(
        "--cost",
        default=None,
        help="cost function: max (default with a measure), sum, mean, "
        "count, l2",
    )
    batch_parser.add_argument(
        "--out",
        default=None,
        help="write JSONL results here instead of stdout (flushed per "
        "line, so partial output survives an interrupt)",
    )
    batch_parser.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    batch_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request budget in seconds for requests without a "
        "'deadline' (enforced with SIGKILL plus a grace period)",
    )
    batch_parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help="address-space headroom per worker",
    )
    _add_trace_argument(batch_parser)

    info_parser = commands.add_parser(
        "info", help="profile a CSV: domains, skew, pattern space"
    )
    info_parser.add_argument("csv", help="input CSV with a header row")
    info_parser.add_argument(
        "--attributes",
        required=True,
        help="comma-separated pattern attribute columns",
    )
    info_parser.add_argument(
        "--measure",
        default=None,
        help="numeric column to profile as the measure",
    )

    demo_parser = commands.add_parser(
        "demo",
        help="run the algorithms on a bundled synthetic dataset",
    )
    demo_parser.add_argument(
        "--dataset",
        default="lbl:5000",
        help="name[:rows][@seed]; names: lbl, census, entities "
        "(default: lbl:5000)",
    )
    demo_parser.add_argument(
        "-k", type=int, default=8, help="maximum number of patterns"
    )
    demo_parser.add_argument(
        "-s", "--coverage", type=float, default=0.4,
        help="required coverage fraction",
    )
    demo_parser.add_argument(
        "--unoptimized",
        action="store_true",
        help="also run the enumeration-based algorithms and the LP bound",
    )

    trace_parser = commands.add_parser(
        "trace",
        help="inspect a JSONL trace written with --trace",
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_summarize = trace_commands.add_parser(
        "summarize",
        help="per-phase rollup: time per phase, budget-round chart, "
        "event tallies, final metrics snapshot",
    )
    trace_summarize.add_argument("path", help="trace JSONL file")
    trace_summarize.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the rollup as JSON instead of the text tables",
    )
    trace_validate = trace_commands.add_parser(
        "validate",
        help="validate every record against the scwsc-trace/1 schema",
    )
    trace_validate.add_argument("path", help="trace JSONL file")
    trace_validate.add_argument(
        "--strict",
        action="store_true",
        help="also fail on orphan spans (a parent_id that names a span "
        "absent from the file) — enforces the zero-orphan stitching "
        "guarantee, not just record shapes",
    )
    trace_flamegraph = trace_commands.add_parser(
        "flamegraph",
        help="export collapsed stacks (flamegraph.pl / speedscope input) "
        "from the span tree, valued by span self time",
    )
    trace_flamegraph.add_argument("path", help="trace JSONL file")
    trace_flamegraph.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the collapsed stacks here instead of stdout",
    )

    report_parser = commands.add_parser(
        "report",
        help="render a trace into an HTML run dashboard, or (with no "
        "trace) run every experiment and emit a markdown report",
    )
    report_parser.add_argument(
        "trace_file",
        nargs="?",
        default=None,
        metavar="TRACE",
        help="JSONL trace to render as a self-contained HTML dashboard; "
        "omit for the markdown experiment report",
    )
    report_parser.add_argument(
        "-o",
        "--output",
        default="report.html",
        metavar="PATH",
        help="HTML output path for the dashboard (default: report.html)",
    )
    report_parser.add_argument(
        "--title",
        default="scwsc run report",
        help="dashboard page title",
    )
    report_parser.add_argument(
        "--postmortem",
        action="append",
        default=None,
        metavar="BUNDLE",
        help="scwsc-postmortem/1 bundle JSON to render in the dashboard's "
        "postmortem panel (repeatable; also accepts a spool directory)",
    )
    report_parser.add_argument(
        "--scale",
        choices=("small", "full"),
        default="full",
        help="workload scale for the markdown report (default: full)",
    )
    report_parser.add_argument(
        "--out",
        type=argparse.FileType("w"),
        default=None,
        help="write the markdown report to a file instead of stdout",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the solver daemon: warm worker pool, HTTP solve/batch "
        "endpoints, admission control, graceful drain (docs/SERVING.md)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks a free port, printed in the boot line "
        "(default: 8080)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    serve_parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help="address-space headroom per worker",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="global cap on admitted-but-unanswered requests; beyond it "
        "requests shed with 429 (default: 16)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="cap on the dispatch backlog (default: 64)",
    )
    serve_parser.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        help="end-to-end budget in seconds for requests without their "
        "own (default: 30)",
    )
    serve_parser.add_argument(
        "--max-deadline",
        type=float,
        default=300.0,
        help="largest per-request deadline honored (default: 300)",
    )
    serve_parser.add_argument(
        "--read-timeout",
        type=float,
        default=10.0,
        help="socket timeout for reading a request; slow clients are "
        "dropped (default: 10)",
    )
    serve_parser.add_argument(
        "--grace",
        type=float,
        default=1.0,
        help="SIGKILL slack past a request's deadline (default: 1)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="on SIGTERM, how long to wait for in-flight work "
        "(default: 30)",
    )
    serve_parser.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="write a JSONL trace holding one `access` record per HTTP "
        "request (check with `scwsc trace validate`; see "
        "docs/OBSERVABILITY.md)",
    )
    serve_parser.add_argument(
        "--no-flightrec",
        action="store_true",
        help="disarm the always-on flight-recorder ring buffers",
    )
    serve_parser.add_argument(
        "--no-debug-endpoints",
        action="store_true",
        help="disable the loopback-only GET /debug/* introspection routes",
    )
    serve_parser.add_argument(
        "--postmortem-dir",
        default=None,
        metavar="DIR",
        help="spool directory for triggered scwsc-postmortem/1 bundles "
        "(worker death, hard timeout, breaker open, 5xx); unset "
        "disables triggered bundles",
    )
    serve_parser.add_argument(
        "--postmortem-interval",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-trigger-kind rate limit between bundles (default: 60)",
    )
    serve_parser.add_argument(
        "--postmortem-max-bytes",
        type=int,
        default=16 * 1024 * 1024,
        metavar="BYTES",
        help="postmortem spool byte cap, oldest deleted first "
        "(default: 16MiB)",
    )
    serve_parser.add_argument(
        "--postmortem-max-bundles",
        type=int,
        default=20,
        help="postmortem spool bundle-count cap (default: 20)",
    )
    _add_trace_argument(serve_parser)

    debug_parser = commands.add_parser(
        "debug",
        help="work with scwsc-postmortem/1 flight-recorder bundles: "
        "assemble, inspect, validate (docs/OBSERVABILITY.md §12)",
    )
    debug_commands = debug_parser.add_subparsers(
        dest="debug_command", required=True
    )
    debug_bundle = debug_commands.add_parser(
        "bundle",
        help="assemble a manual postmortem bundle from this process "
        "(stack burst + metrics + rings), redacted by default",
    )
    debug_bundle.add_argument(
        "-o",
        "--output",
        default="postmortem-manual.json",
        metavar="PATH",
        help="bundle output path (default: postmortem-manual.json)",
    )
    debug_bundle.add_argument(
        "--reason",
        default="manual bundle via scwsc debug bundle",
        help="reason string recorded in the bundle",
    )
    debug_bundle.add_argument(
        "--no-redact",
        action="store_true",
        help="skip credential redaction (bundles redact by default so "
        "they are safe to attach to tickets)",
    )
    debug_inspect = debug_commands.add_parser(
        "inspect",
        help="pretty-print a bundle: trigger, build, ring occupancy, "
        "recent events, hottest sampled stacks",
    )
    debug_inspect.add_argument("path", help="bundle JSON file")
    debug_inspect.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full (redacted) bundle as indented JSON",
    )
    debug_validate = debug_commands.add_parser(
        "validate",
        help="validate bundles against the scwsc-postmortem/1 schema "
        "(ring records are re-checked against their own schemas)",
    )
    debug_validate.add_argument(
        "paths", nargs="+", metavar="BUNDLE", help="bundle JSON file(s)"
    )
    return parser


class _Terminated(KeyboardInterrupt):
    """SIGTERM, surfaced through the KeyboardInterrupt cleanup path.

    Subclassing ``KeyboardInterrupt`` reuses every flush-and-unwind
    path the codebase already has for Ctrl-C (``batch`` flushes per
    result line, pool context managers close their workers), while
    letting :func:`main` report the conventional 128+SIGTERM exit code
    instead of 130.
    """


def _install_sigterm_drain() -> object | None:
    """Route SIGTERM through :class:`_Terminated`; returns the previous
    handler (``None`` when not running in the main thread)."""

    def _on_sigterm(signum: int, frame) -> None:
        raise _Terminated()

    try:
        return signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread (embedded use); skip
        return None


def main(argv: list[str] | None = None) -> int:
    from repro.obs.log import console_logging
    from repro.obs.metrics import publish_build_info

    parser = build_parser()
    args = parser.parse_args(argv)
    console_logging()
    publish_build_info()
    # `serve` owns its signals (drain handshake inside run_server);
    # every other command gets the same clean SIGTERM exit as Ctrl-C.
    previous_sigterm = (
        None if args.command == "serve" else _install_sigterm_drain()
    )
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import trace as obs_trace

        obs_trace.configure(
            trace_path,
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
        )
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "debug":
            return _cmd_debug(args)
        return _cmd_solve(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    except OSError as error:
        # Unreadable/unwritable input or output file: bad input.
        print(f"error: {error}", file=sys.stderr)
        return ValidationError.exit_code
    except _Terminated:
        # Same drain-and-flush guarantees as Ctrl-C below, reported
        # with the conventional 128+SIGTERM.
        print("terminated; partial results are flushed", file=sys.stderr)
        return 143
    except KeyboardInterrupt:
        # `batch` flushes each result line, so everything completed so
        # far is already on disk; report the interrupt with the
        # conventional 128+SIGINT.
        print("interrupted; partial results are flushed", file=sys.stderr)
        return 130
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        if trace_path:
            from repro.obs import trace as obs_trace
            from repro.obs.metrics import get_registry

            # Close the trace with a metrics snapshot so the file is
            # self-contained even if the command errored out.
            obs_trace.shutdown(get_registry().snapshot())


def _cmd_list() -> int:
    for experiment_id, description in available_experiments().items():
        print(f"{experiment_id:16s} {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = (
        list(available_experiments())
        if args.experiment == "all"
        else [args.experiment]
    )
    output = "\n\n".join(
        run_experiment(experiment_id, scale=args.scale).text
        for experiment_id in ids
    )
    print(output)
    if args.out is not None:
        with args.out as handle:
            handle.write(output + "\n")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    attributes = [name.strip() for name in args.attributes.split(",")]
    table = PatternTable.from_csv(
        args.csv, attributes, measure_name=args.measure
    )
    cost_name = args.cost or ("max" if args.measure else "count")
    cost = get_cost_function(cost_name)
    if args.memory_limit is not None and not args.isolate:
        raise ValidationError("--memory-limit requires --isolate")
    if args.fallback is not None or args.timeout is not None or args.isolate:
        result = _solve_resilient(args, table, cost)
    elif args.algorithm == "cwsc":
        result = optimized_cwsc(
            table, args.k, args.coverage, cost=cost,
            on_infeasible="full_cover",
        )
    elif args.algorithm == "exact":
        from repro.core.exact import solve_exact
        from repro.core.preprocess import remove_dominated
        from repro.patterns.pattern_sets import build_set_system

        system = remove_dominated(build_set_system(table, cost))
        result = solve_exact(system, args.k, args.coverage)
    else:
        result = optimized_cmc(
            table, args.k, args.coverage, b=args.b, cost=cost, eps=args.eps
        )
    from repro.obs.metrics import record_cover_result

    record_cover_result(result)
    provenance = result.params.get("resilience")
    if args.json:
        payload = result.to_dict()
        if provenance is not None:
            payload["resilience"] = provenance
        pool_provenance = result.params.get("pool")
        if pool_provenance is not None:
            payload["pool"] = pool_provenance
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary())
    for pattern in result.labels:
        print(f"  {pattern.format(attributes)}")
    pool_provenance = result.params.get("pool")
    if pool_provenance is not None:
        attempts = pool_provenance.get("attempts", [])
        print(
            f"pool: {len(attempts)} attempt(s), "
            f"{pool_provenance.get('requeues', 0)} requeue(s)"
        )
        for attempt in attempts:
            line = (
                f"  attempt {attempt['attempt']} "
                f"(worker {attempt['worker']}): {attempt['outcome']}"
            )
            if attempt.get("detail"):
                line += f" ({attempt['detail']})"
            print(line)
    if provenance is not None:
        print(f"resilience: answered by stage {provenance['stage']!r}")
        for record in provenance["stages"]:
            line = f"  {record['stage']:12s} {record['status']}"
            if record["detail"]:
                line += f" ({record['detail']})"
            print(line)
    if args.sql:
        from repro.patterns.sql import solution_to_sql

        print()
        print(solution_to_sql(result, attributes, table_name="records"))
    return 0


def _solve_resilient(args: argparse.Namespace, table, cost):
    """``scwsc solve`` under the resilient harness.

    Triggered by ``--timeout``, ``--fallback``, and/or ``--isolate``.
    Runs on the fully enumerated set system so every chain stage is
    available; infeasible outcomes surface as :class:`InfeasibleError`
    (exit code 3), blown overall deadlines as partial degradation inside
    the chain rather than a crash. With ``--isolate`` the chain runs in
    a supervised worker process, making the timeout hard and the memory
    limit enforceable.
    """
    from repro.patterns.pattern_sets import build_set_system
    from repro.resilience import DEFAULT_CHAIN, resilient_solve

    if args.fallback is None or args.fallback == "default":
        chain = {
            "cwsc": ("cwsc", "universal"),
            "cmc": ("cmc_epsilon", "universal"),
            "exact": ("exact", "cwsc", "universal"),
        }[args.algorithm] if args.fallback is None else DEFAULT_CHAIN
    else:
        chain = tuple(
            name.strip() for name in args.fallback.split(",") if name.strip()
        )
    system = build_set_system(table, cost)
    return resilient_solve(
        system,
        args.k,
        args.coverage,
        chain=chain,
        timeout=args.timeout,
        stage_options={
            "cmc": {"b": args.b},
            "cmc_epsilon": {"b": args.b, "eps": args.eps},
        },
        on_failure="raise",
        isolation="process" if args.isolate else "inline",
        memory_limit_mb=args.memory_limit,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    """``scwsc batch``: JSONL requests in, JSONL results out.

    Every input line is one solve request against the shared CSV's set
    system. Results stream out in completion order (the ``tag`` ties
    them back), one flushed JSON line each, so an interrupted batch
    keeps everything that finished. Exit code is 0 when every request
    produced a verified result (``ok`` or ``fallback``), 3 otherwise.
    """
    from repro.patterns.pattern_sets import build_set_system
    from repro.resilience.pool import PoolConfig, SolverPool
    from repro.resilience.pool.worker import solve_request_from_json

    attributes = [name.strip() for name in args.attributes.split(",")]
    table = PatternTable.from_csv(
        args.csv, attributes, measure_name=args.measure
    )
    cost_name = args.cost or ("max" if args.measure else "count")
    system = build_set_system(table, get_cost_function(cost_name))

    out_stream = (
        sys.stdout if args.out is None else open(args.out, "w")
    )

    def emit(payload: dict) -> None:
        out_stream.write(json.dumps(payload) + "\n")
        out_stream.flush()

    failed = 0
    requests = []
    try:
        in_stream = (
            sys.stdin if args.requests == "-" else open(args.requests)
        )
        try:
            for lineno, line in enumerate(in_stream, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    request = solve_request_from_json(json.loads(line), system)
                except (ValueError, ProtocolError) as error:
                    failed += 1
                    emit(
                        {
                            "tag": f"line-{lineno}",
                            "status": "invalid",
                            "error": str(error) or repr(error),
                        }
                    )
                    continue
                if request.tag is None:
                    request.tag = f"line-{lineno}"
                requests.append(request)
        finally:
            if in_stream is not sys.stdin:
                in_stream.close()

        from repro.obs.metrics import record_cover_result

        def on_result(outcome) -> None:
            nonlocal failed
            if outcome.status == "failed":
                failed += 1
            payload = {"tag": outcome.tag, "status": outcome.status}
            if outcome.result is not None:
                record_cover_result(outcome.result)
                payload["result"] = outcome.result.to_dict()
                resilience = outcome.result.params.get("resilience")
                if resilience is not None:
                    payload["resilience"] = resilience
            payload["pool"] = outcome.provenance
            emit(payload)

        config = PoolConfig(
            workers=args.workers,
            memory_limit_mb=args.memory_limit,
            request_timeout=args.timeout,
        )
        with SolverPool(config) as pool:
            pool.run(requests, on_result=on_result)
            breakers = pool.breaker_snapshot()
    finally:
        if out_stream is not sys.stdout:
            out_stream.close()
    print(
        f"batch: {len(requests)} request(s) run, {failed} failed"
        + (
            f"; breakers tripped: "
            f"{[n for n, b in breakers.items() if b['times_opened']]}"
            if any(b["times_opened"] for b in breakers.values())
            else ""
        ),
        file=sys.stderr,
    )
    return 0 if failed == 0 else 3


def _cmd_trace(args: argparse.Namespace) -> int:
    """``scwsc trace summarize|validate|flamegraph`` over a JSONL trace."""
    if args.trace_command == "validate":
        from repro.obs.schema import validate_trace_file

        problems = validate_trace_file(
            args.path, strict=getattr(args, "strict", False)
        )
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        if problems:
            return ValidationError.exit_code
        print(f"{args.path}: ok")
        return 0
    if args.trace_command == "flamegraph":
        from repro.obs.report import collapsed_stacks, load_trace

        lines = collapsed_stacks(load_trace(args.path))
        body = "\n".join(lines) + ("\n" if lines else "")
        if args.output is None:
            sys.stdout.write(body)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(body)
            print(
                f"flamegraph: {len(lines)} stack(s) written to "
                f"{args.output}",
                file=sys.stderr,
            )
        return 0
    from repro.obs.report import summarize_file

    print(summarize_file(args.path, as_json=getattr(args, "as_json", False)))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.patterns.stats import profile_table

    attributes = [name.strip() for name in args.attributes.split(",")]
    table = PatternTable.from_csv(
        args.csv, attributes, measure_name=args.measure
    )
    print(profile_table(table).render())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis import compare_algorithms
    from repro.datasets.registry import load_dataset
    from repro.patterns.stats import profile_table

    table = load_dataset(args.dataset)
    print(f"dataset {args.dataset}:")
    print(profile_table(table).render())
    print(
        f"\ncomparing algorithms (k={args.k}, s={args.coverage:g}):"
    )
    comparison = compare_algorithms(
        table,
        args.k,
        args.coverage,
        include_unoptimized=args.unoptimized,
        include_lp_bound=args.unoptimized,
    )
    print(comparison.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trace_file is not None:
        return _cmd_report_dashboard(args)
    lines = [
        "# Size-Constrained Weighted Set Cover — regenerated artifacts",
        "",
        f"Scale: `{args.scale}`. See EXPERIMENTS.md for the",
        "paper-vs-measured discussion of each shape.",
        "",
    ]
    for experiment_id in available_experiments():
        report = run_experiment(experiment_id, scale=args.scale)
        lines.append(f"## {report.title} ({experiment_id})")
        lines.append("")
        lines.append("```")
        lines.append(report.text)
        lines.append("```")
        lines.append("")
    output = "\n".join(lines)
    if args.out is not None:
        with args.out as handle:
            handle.write(output + "\n")
    else:
        print(output)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``scwsc serve``: boot the daemon and block until SIGTERM/SIGINT."""
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        memory_limit_mb=args.memory_limit,
        max_inflight=args.max_inflight,
        max_queue_depth=args.queue_depth,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        read_timeout=args.read_timeout,
        grace=args.grace,
        drain_timeout=args.drain_timeout,
        access_log=args.access_log,
        flightrec=not args.no_flightrec,
        debug_endpoints=not args.no_debug_endpoints,
        postmortem_dir=args.postmortem_dir,
        postmortem_interval=args.postmortem_interval,
        postmortem_max_bytes=args.postmortem_max_bytes,
        postmortem_max_bundles=args.postmortem_max_bundles,
    )
    return run_server(config)


def _cmd_debug(args: argparse.Namespace) -> int:
    """``scwsc debug bundle|inspect|validate`` over postmortem bundles."""
    import json as json_module

    from repro.obs import flightrec as obs_flightrec
    from repro.obs.postmortem import (
        build_bundle,
        redact_bundle,
        validate_bundle,
        validate_bundle_file,
    )

    if args.debug_command == "bundle":
        recorder = obs_flightrec.get_recorder()
        if recorder is None:
            # A CLI process has no serve daemon behind it; the manual
            # bundle still captures this process's stacks, metrics, and
            # build info — and exercises the full bundle pipeline.
            recorder = obs_flightrec.FlightRecorder()
        bundle = build_bundle(
            recorder, trigger="manual", reason=args.reason
        )
        if not args.no_redact:
            bundle = redact_bundle(bundle)
        problems = validate_bundle(bundle)
        if problems:
            for problem in problems:
                print(f"debug bundle: {problem}", file=sys.stderr)
            return ValidationError.exit_code
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(bundle, handle, indent=2, default=str)
            handle.write("\n")
        print(f"debug: bundle written to {args.output}")
        return 0

    if args.debug_command == "validate":
        status = 0
        for path in args.paths:
            try:
                bundle = validate_bundle_file(path)
            except (OSError, ValidationError) as error:
                print(f"{path}: {error}", file=sys.stderr)
                status = ValidationError.exit_code
                continue
            print(f"{path}: ok (trigger={bundle['trigger']})")
        return status

    # inspect
    bundle = validate_bundle_file(args.path)
    bundle = redact_bundle(bundle)
    if args.as_json:
        print(json_module.dumps(bundle, indent=2, default=str))
        return 0
    import datetime

    created = datetime.datetime.fromtimestamp(
        bundle["created_unix"], tz=datetime.timezone.utc
    )
    build = bundle["build"]
    print(f"postmortem bundle: {args.path}")
    print(f"  trigger   {bundle['trigger']}: {bundle['reason']}")
    print(f"  created   {created.isoformat()}")
    print(
        f"  build     scwsc {build['version']} / python {build['python']} "
        f"/ backend {build['backend']}"
    )
    if bundle.get("context"):
        print(f"  context   {json_module.dumps(bundle['context'], default=str)}")
    print("  rings:")
    for name, ring in bundle["rings"].items():
        print(
            f"    {name:<8} {len(ring['records'])} record(s) "
            f"(capacity {ring['capacity']}, dropped {ring['dropped']})"
        )
    workers = bundle.get("workers") or {}
    if workers:
        print("  worker rings:")
        for index, ring in sorted(workers.items()):
            last = _record_title(ring[-1]) if ring else "-"
            print(f"    worker {index}: {len(ring)} record(s), last={last}")
    events = bundle["rings"]["events"]["records"]
    if events:
        print("  last events:")
        for record in events[-10:]:
            print(f"    t={record.get('t')} {_record_title(record)}")
    collapsed = bundle["stacks"].get("collapsed") or []
    if collapsed:
        print("  hottest stacks:")
        for line in collapsed[:5]:
            print(f"    {line}")
    return 0


def _record_title(record: dict) -> str:
    """A ringed record's name; its type for records without one (a
    worker's ring keeps every record type, ``quality`` included)."""
    return record.get("name") or record.get("type") or "?"


def _cmd_report_dashboard(args: argparse.Namespace) -> int:
    """``scwsc report TRACE [-o report.html]``: the HTML run dashboard."""
    from pathlib import Path

    from repro.obs.dashboard import render_dashboard
    from repro.obs.report import load_trace

    records = load_trace(args.trace_file)
    postmortems = _load_postmortems(args.postmortem)
    html = render_dashboard(records, title=args.title, postmortems=postmortems)
    Path(args.output).write_text(html, encoding="utf-8")
    print(
        f"report: dashboard written to {args.output} "
        f"({len(records)} trace record(s), "
        f"{len(postmortems)} postmortem(s))",
        file=sys.stderr,
    )
    return 0


def _load_postmortems(paths: list[str] | None) -> list[dict]:
    """Load ``--postmortem`` arguments: bundle files or spool dirs.

    Unreadable/invalid bundles are reported and skipped — a dashboard
    render must not fail because one incident artifact is corrupt.
    """
    import json as json_module
    from pathlib import Path

    if not paths:
        return []
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("postmortem-*.json")))
        else:
            files.append(path)
    bundles: list[dict] = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                bundle = json_module.load(handle)
        except (OSError, ValueError) as error:
            print(f"report: skipping {path}: {error}", file=sys.stderr)
            continue
        if isinstance(bundle, dict):
            bundle.setdefault("_source", str(path))
            bundles.append(bundle)
    return bundles


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
