"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import run  # noqa: E402
import serve_solve  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 100)]  # 99 samples: 9 beyond
    held = benchlib.tail_percentile(samples, 0.90)
    assert held["value"] is None
    assert (held["samples"], held["beyond"]) == (99, 9)

    samples.append(100.0)  # 100 samples: 10 beyond the 90th
    reported = benchlib.tail_percentile(samples, 0.90)
    assert reported["value"] == 90.0
    assert (reported["samples"], reported["beyond"]) == (100, 10)


def test_p90_of_nothing_is_unreported():
    assert benchlib.tail_percentile([], 0.9)["value"] is None


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": 1}


def test_self_time_subtracts_children():
    records = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: counted once
        _span("c", 2.5, 3.5, parent=2),  # grandchild: only b loses it
    ]
    assert benchlib.self_times(records) == pytest.approx([6.0, 2.0, 2.0, 1.0])


def test_recorded_spans_nest_and_layer_sums_cover_the_op():
    spans = benchlib.Spans()
    with spans.span("op", 7):
        with spans.span("inner", 7):
            pass
    op, inner = spans.records
    assert inner["parent"] == 0 and op["parent"] is None
    assert {op["op"], inner["op"]} == {7}
    layers = benchlib.layer_self_seconds(spans.records, n_ops=1)
    assert sum(layers.values()) == pytest.approx(op["end"] - op["start"])


def test_untraced_spans_record_nothing():
    spans = benchlib.Spans(enabled=False)
    with spans.span("op", 1):
        pass
    assert spans.records == []


# ----------------------------------------------------------------------
# Contracts
# ----------------------------------------------------------------------
def _singletons(n):
    from repro.core import SetSystem

    return SetSystem.from_iterables(
        n_elements=n,
        benefits=[{i} for i in range(n)] + [set(range(n))],
        costs=[1.0] * n + [100.0],
    )


def _result(algorithm, set_ids, cost, covered, n, **params):
    from repro.core import CoverResult

    return CoverResult(
        algorithm=algorithm, set_ids=tuple(set_ids),
        labels=tuple(set_ids), total_cost=cost, covered=covered,
        n_elements=n, feasible=True, params=params,
    )


def test_honest_answers_pass():
    system = _singletons(10)
    cwsc = _result("cwsc", range(5), 5.0, 5, 10)
    assert benchlib.check_cover(system, cwsc, k=5, s_hat=0.5) == ([], [])
    universal = _result("universal", [10], 100.0, 10, 10)
    assert benchlib.check_cover(system, universal, 1, 0.5) == ([], [])


def test_cmc_with_more_than_5k_sets_fails():
    k = 2
    system = _singletons(20)
    doctored = _result("cmc", range(5 * k + 1), 5.0 * k + 1, 5 * k + 1, 20)
    verdict = benchlib.check_cover(system, doctored, k=k, s_hat=0.5)
    assert verdict.failed and not verdict.false_claims
    assert any("exceed the promised" in p for p in verdict.failures)


def test_lp_rounding_is_held_to_k():
    system = _singletons(10)
    answer = _result("lp_rounding", range(6), 6.0, 6, 10)
    assert benchlib.check_cover(system, answer, 5, 0.5).failures
    assert not benchlib.check_cover(system, answer, 6, 0.5).failed


def test_cmc_epsilon_bound_is_floor_of_one_plus_eps_k():
    system = _singletons(20)
    answer = _result("cmc_epsilon", range(8), 8.0, 8, 20)
    assert not benchlib.check_cover(system, answer, 5, 0.5, eps=0.6).failed
    assert benchlib.check_cover(system, answer, 5, 0.5, eps=0.5).failed


def test_claimed_cost_must_match_recomputed_cost():
    system = _singletons(10)
    doctored = _result("cwsc", range(5), 4.0, 5, 10)
    verdict = benchlib.check_cover(system, doctored, k=5, s_hat=0.5)
    assert any("claimed cost" in p for p in verdict.false_claims)


def test_cwsc_must_reach_full_s_hat_but_cmc_only_the_discount():
    system = _singletons(10)
    four = dict(set_ids=range(4), cost=4.0, covered=4, n=10)
    assert benchlib.check_cover(system, _result("cwsc", **four), 5, 0.5).failed
    assert not benchlib.check_cover(
        system, _result("cmc", **four), 5, 0.5).failed


def test_doctored_pattern_answer_fails():
    from repro.datasets import load_dataset
    from repro.patterns import optimized_cwsc

    table = load_dataset("entities")
    honest = optimized_cwsc(table, 3, 0.5, cost="max")
    assert not benchlib.check_pattern_answer(table, honest, 3, 0.5).failed
    honest.total_cost += 1.0
    verdict = benchlib.check_pattern_answer(table, honest, 3, 0.5)
    assert any("claimed cost" in p for p in verdict.false_claims)


@pytest.mark.parametrize("status", [429, 500, 503, 400])
def test_non_200_replies_count_as_failed(status):
    system = _singletons(4)
    assert benchlib.check_response(
        status, {"error": "shed"}, system, 2, 0.5).failures
    reply = {"op": {"system": 0, "k": 2, "s_hat": 0.5}, "error": None,
             "status": status, "raw": b'{"error": "request shed"}'}
    failed, verdict = serve_solve._check([reply], [{"system": system}])
    assert failed == 1 and verdict.failures == [f"HTTP {status}"]
    assert verdict.false_claims == []


def test_verified_200_is_not_failed():
    system = _singletons(4)
    body = {"status": "ok", "result": _result(
        "cwsc", [0, 1], 2.0, 2, 4).to_dict()}
    reply = {"op": {"system": 0, "k": 2, "s_hat": 0.5}, "error": None,
             "status": 200, "raw": json.dumps(body).encode()}
    assert serve_solve._check([reply], [{"system": system}]) == (0, ([], []))


def test_reuse_share_counts_repeat_systems():
    replies = [{"pass": p, "op": {"system": s}}
               for p, s in ((0, 0), (0, 1), (0, 0), (1, 0))]
    assert serve_solve.reuse_share(replies) == 0.25


_STUCK = """
import signal, subprocess, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(child.pid, flush=True)
time.sleep(60)
"""


def test_daemon_ignoring_sigterm_is_killed_with_its_tree(monkeypatch):
    monkeypatch.setattr(serve_solve, "STOP_TIMEOUT", 0.5)
    proc = subprocess.Popen([sys.executable, "-c", _STUCK],
                            stdout=subprocess.PIPE, text=True)
    child = int(proc.stdout.readline())
    daemon = object.__new__(serve_solve.Daemon)
    daemon.proc, daemon._drain, daemon.forced = proc, None, False
    daemon.stop()
    assert daemon.forced and proc.returncode == -9
    assert not serve_solve._alive(child)


# ----------------------------------------------------------------------
# The command and its declaration
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", run.REFUSED_ENV)
def test_refuses_forced_backend_or_chaos(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "packed")
    code = run.main(["--workload", "solve-sweep", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert "refusing" in capsys.readouterr().err
