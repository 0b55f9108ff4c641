# Test and verification entry points.
#
#   make test         tier-1 suite (what CI gates on)
#   make chaos        fault-injection suite only, fixed seeds so failures reproduce
#   make verify       tier-1 followed by the chaos suite — the full gate
#   make perfbench-test  perfbench's own tests plus 2 s solve-sweep,
#                     table-cold and serve-solve smokes, each failing the
#                     target on any failed op or wrong answer (table-cold
#                     runs 3 checked table ops; serve-solve boots the
#                     daemon and posts one pass of 32 /solve requests
#                     through the full resilient chain, about 25 s on
#                     2 vCPU), so a change under src/ cannot silently
#                     break the end-to-end benchmark
#   make paper-bench  the paper-shape benches (pytest benchmarks/, full
#                     scale, about 3 min); not in CI while some fail
#   make trace-smoke  traced solves (plain + --isolate), schema-validated
#   make serve-smoke  boot the real daemon twice: healthy mixed-deadline
#                     traffic, then forced overload (429s) + SIGTERM drain
#   make debug-smoke  boot the daemon with a postmortem spool, SIGKILL a
#                     pool worker mid-service, assert exactly one
#                     schema-valid flight-recorder bundle appears and the
#                     public debug CLI accepts it
#   make dashboard    render trace-smoke's solve trace to report.html
#
# PYTHONHASHSEED is pinned so set/dict iteration orders (and thus any
# order-dependent tie-breaking bug the suites might expose) reproduce
# run to run.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONHASHSEED := 0

.PHONY: test chaos verify perfbench-test paper-bench trace-smoke serve-smoke debug-smoke dashboard

test:
	$(PYTHON) -m pytest -x -q

chaos:
	$(PYTHON) -m pytest -x -q -m chaos

verify: test chaos

# perfbench/run.py exits 0 whatever its ops did; its last line is a JSON
# summary. This filter echoes the output and fails on any failed op or
# wrong answer (and on no output at all).
PERFBENCH_CHECK = $(PYTHON) -c 'import json, sys; \
	lines = sys.stdin.read().splitlines(); print(*lines, sep="\n"); \
	last = json.loads(lines[-1]); \
	sys.exit(bool(last["failed"]) or not last["correct"])'

perfbench-test:
	$(PYTHON) -m pytest -q perfbench
	$(PYTHON) perfbench/run.py --workload solve-sweep --seed 1 --seconds 2 | $(PERFBENCH_CHECK)
	$(PYTHON) perfbench/run.py --workload table-cold --seed 1 --seconds 2 | $(PERFBENCH_CHECK)
	$(PYTHON) perfbench/run.py --workload serve-solve --seed 1 --seconds 2 | $(PERFBENCH_CHECK)

paper-bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

trace-smoke:
	$(PYTHON) benchmarks/trace_smoke.py trace-smoke

serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py serve-smoke

debug-smoke:
	$(PYTHON) benchmarks/debug_smoke.py debug-smoke

dashboard: trace-smoke
	$(PYTHON) -m repro.cli report trace-smoke/solve.jsonl -o report.html
