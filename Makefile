# Test and verification entry points.
#
#   make test         tier-1 suite (what CI gates on)
#   make chaos        fault-injection suite only, fixed seeds so failures reproduce
#   make verify       tier-1 followed by the chaos suite — the full gate
#   make bench        quick benchmark matrix, gated against the committed baseline
#                     (runtime AND quality); appends to BENCH_history.jsonl
#   make bench-large  n = 10^5 packed-kernel matrix (--scale large), gated
#                     against the committed baseline's large cells (runtime,
#                     quality, and peak RSS)
#   make perfbench-test  perfbench's own tests plus 2 s solve-sweep and
#                     table-cold smokes (the latter runs 3 checked table
#                     ops), so a change under src/ cannot silently break
#                     the end-to-end benchmark
#   make paper-bench  the paper-shape benches (pytest benchmarks/, full
#                     scale, about 3 min); not in CI while some fail
#   make trace-smoke  traced solves (plain + --isolate), schema-validated
#   make profile-smoke  profiled solve, flamegraph export, dashboard render
#   make serve-smoke  boot the real daemon twice: healthy mixed-deadline
#                     traffic, then forced overload (429s) + SIGTERM drain
#   make debug-smoke  boot the daemon with a postmortem spool, SIGKILL a
#                     pool worker mid-service, assert exactly one
#                     schema-valid flight-recorder bundle appears and the
#                     public debug CLI accepts it
#   make dashboard    render trace-smoke's solve trace + bench history to
#                     report.html
#
# PYTHONHASHSEED is pinned so set/dict iteration orders (and thus any
# order-dependent tie-breaking bug the suites might expose) reproduce
# run to run.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONHASHSEED := 0

.PHONY: test chaos verify bench bench-large perfbench-test paper-bench trace-smoke profile-smoke serve-smoke debug-smoke dashboard

test:
	$(PYTHON) -m pytest -x -q

chaos:
	$(PYTHON) -m pytest -x -q -m chaos

verify: test chaos

bench:
	$(PYTHON) -m repro.bench --quick --check --out BENCH_micro.json

bench-large:
	$(PYTHON) -m repro.bench --scale large --repeat 2 --check --out BENCH_large.json

perfbench-test:
	$(PYTHON) -m pytest -q perfbench
	$(PYTHON) perfbench/run.py --workload solve-sweep --seed 1 --seconds 2
	$(PYTHON) perfbench/run.py --workload table-cold --seed 1 --seconds 2

paper-bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

trace-smoke:
	$(PYTHON) benchmarks/trace_smoke.py trace-smoke

profile-smoke:
	$(PYTHON) benchmarks/profile_smoke.py profile-smoke

serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py serve-smoke

debug-smoke:
	$(PYTHON) benchmarks/debug_smoke.py debug-smoke

dashboard: trace-smoke
	$(PYTHON) -m repro.cli report trace-smoke/solve.jsonl -o report.html
