"""Integration tests for the benchmark regression harness."""

import json

import pytest

from repro.bench import (
    BACKENDS,
    HISTORY_SCHEMA,
    SCHEMA,
    BenchCase,
    compare_reports,
    default_cases,
    history_entry,
    main,
    render_report,
    run_benchmarks,
)
from repro.errors import ValidationError

#: Tiny workload so the whole matrix runs in well under a second.
TINY = (40,)


@pytest.fixture(scope="module")
def tiny_report() -> dict:
    return run_benchmarks(scale="quick", repeat=2, warmup=1, sizes=TINY)


class TestMatrix:
    def test_default_cases_cover_both_workloads_and_backends(self):
        cases = default_cases("quick")
        workloads = {case.workload for case in cases}
        assert workloads == {
            "bench_table5_runtime",
            "bench_fig5_datasize",
        }
        assert {case.backend for case in cases} == set(BACKENDS)

    def test_large_scales_run_packed_only(self):
        for scale in ("large", "xlarge"):
            assert {c.backend for c in default_cases(scale)} == {"packed"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValidationError):
            default_cases("galactic")

    def test_bench_ids_unique_per_measurement(self):
        cases = default_cases("full")
        table5 = [
            c for c in cases if c.workload == "bench_table5_runtime"
        ]
        assert len({c.bench_id for c in table5}) == len(table5)


class TestRunBenchmarks:
    def test_report_shape(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA
        assert tiny_report["benchmarks"]
        for entry in tiny_report["benchmarks"].values():
            assert entry["median_seconds"] >= 0.0
            assert len(entry["runs"]) == 2
            assert entry["shape"]["n_elements"] == TINY[0]
            assert entry["result"]["feasible"]
            assert entry["metrics"]["selections"] >= 1

    def test_speedups_present_for_each_workload(self, tiny_report):
        case = BenchCase("bench_table5_runtime", "cwsc", TINY[0], "set")
        assert case.speedup_id in tiny_report["speedups"]
        assert tiny_report["speedups"][case.speedup_id] > 0.0

    def test_backend_pair_selects_identically(self, tiny_report):
        """The report itself witnesses backend equivalence: same
        solution cost/coverage from both backends on every workload."""
        for case in default_cases("quick", sizes=TINY):
            if case.backend != "packed":
                continue
            twin = BenchCase(case.workload, case.solver, case.n_rows, "set")
            fast = tiny_report["benchmarks"][case.bench_id]
            slow = tiny_report["benchmarks"][twin.bench_id]
            assert fast["result"] == slow["result"]
            assert fast["metrics"] == slow["metrics"]

    def test_filter_restricts_cases(self):
        report = run_benchmarks(
            scale="quick",
            repeat=1,
            warmup=0,
            sizes=TINY,
            name_filter="cwsc",
            backends=("packed",),
        )
        assert report["benchmarks"]
        for bench_id in report["benchmarks"]:
            assert "cwsc" in bench_id and "packed" in bench_id

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            run_benchmarks(repeat=0)
        with pytest.raises(ValidationError):
            run_benchmarks(warmup=-1)
        with pytest.raises(ValidationError):
            run_benchmarks(backends=("frozenset",))

    def test_render_report_mentions_every_benchmark(self, tiny_report):
        text = render_report(tiny_report)
        for bench_id in tiny_report["benchmarks"]:
            assert bench_id in text

    def test_every_cell_carries_quality(self, tiny_report):
        for bench_id, entry in tiny_report["benchmarks"].items():
            quality = entry["quality"]
            assert quality["feasible"] is True
            assert quality["sets_used"] == entry["result"]["n_sets"]
            assert quality["coverage_slack"] is not None
            if "[cwsc" in bench_id:
                # CWSC must meet the target outright; CMC's relaxation
                # may legitimately land just under it — and its cost may
                # then undercut the full-target LP bound (ratio < 1).
                assert quality["coverage_slack"] >= 0.0
                if quality["approx_ratio"] is not None:
                    assert quality["approx_ratio"] >= 1.0 - 1e-9

    def test_history_entry_condenses_report(self, tiny_report):
        entry = history_entry(tiny_report, wall_time_unix=123.0)
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["wall_time_unix"] == 123.0
        assert len(entry["cells"]) == len(tiny_report["benchmarks"])
        by_id = {cell["bench_id"]: cell for cell in entry["cells"]}
        for bench_id, bench in tiny_report["benchmarks"].items():
            assert by_id[bench_id]["median_seconds"] == (
                bench["median_seconds"]
            )


class TestCompareReports:
    def _report(self, medians: dict) -> dict:
        return {
            "schema": SCHEMA,
            "benchmarks": {
                bench_id: {"median_seconds": median}
                for bench_id, median in medians.items()
            },
        }

    def test_within_tolerance_passes(self):
        current = self._report({"a": 0.029, "b": 0.010})
        baseline = self._report({"a": 0.010, "b": 0.010})
        regressions, missing = compare_reports(
            current, baseline, tolerance=3.0
        )
        assert regressions == [] and missing == []

    def test_regression_detected_with_ratio(self):
        current = self._report({"a": 0.031})
        baseline = self._report({"a": 0.010})
        regressions, _ = compare_reports(current, baseline, tolerance=3.0)
        assert len(regressions) == 1
        assert regressions[0]["bench_id"] == "a"
        assert regressions[0]["ratio"] == pytest.approx(3.1)

    def test_missing_benchmarks_reported_not_failed(self):
        current = self._report({})
        baseline = self._report({"gone": 0.010})
        regressions, missing = compare_reports(current, baseline)
        assert regressions == [] and missing == ["gone"]

    def test_zero_baseline_never_divides(self):
        current = self._report({"a": 1.0})
        baseline = self._report({"a": 0.0})
        regressions, _ = compare_reports(current, baseline)
        assert regressions == []

    def test_tolerance_must_exceed_one(self):
        with pytest.raises(ValidationError):
            compare_reports(self._report({}), self._report({}), tolerance=1.0)

    def _quality_report(self, cells: dict) -> dict:
        return {
            "schema": SCHEMA,
            "benchmarks": {
                bench_id: {
                    "median_seconds": 0.01,
                    "quality": quality,
                }
                for bench_id, quality in cells.items()
            },
        }

    def test_quality_regression_detected(self):
        baseline = self._quality_report(
            {"a": {"approx_ratio": 1.2, "feasible": True}}
        )
        current = self._quality_report(
            {"a": {"approx_ratio": 1.4, "feasible": True}}
        )
        regressions, _ = compare_reports(
            current, baseline, quality_tolerance=1.1
        )
        assert len(regressions) == 1
        assert regressions[0]["kind"] == "quality"
        assert regressions[0]["ratio"] == pytest.approx(1.4 / 1.2)

    def test_quality_within_tolerance_passes(self):
        baseline = self._quality_report(
            {"a": {"approx_ratio": 1.2, "feasible": True}}
        )
        current = self._quality_report(
            {"a": {"approx_ratio": 1.25, "feasible": True}}
        )
        regressions, _ = compare_reports(
            current, baseline, quality_tolerance=1.1
        )
        assert regressions == []

    def test_turning_infeasible_always_regresses(self):
        baseline = self._quality_report(
            {"a": {"approx_ratio": 1.2, "feasible": True}}
        )
        current = self._quality_report(
            {"a": {"approx_ratio": 1.2, "feasible": False}}
        )
        regressions, _ = compare_reports(current, baseline)
        assert [r["kind"] for r in regressions] == ["feasibility"]

    def test_baseline_without_quality_gates_runtime_only(self):
        baseline = self._report({"a": 0.010})
        current = self._quality_report(
            {"a": {"approx_ratio": 99.0, "feasible": False}}
        )
        current["benchmarks"]["a"]["median_seconds"] = 0.010
        regressions, _ = compare_reports(current, baseline)
        assert regressions == []

    def test_quality_tolerance_must_exceed_one(self):
        with pytest.raises(ValidationError):
            compare_reports(
                self._report({}), self._report({}), quality_tolerance=0.9
            )


class TestQualityGate:
    """``scwsc bench --check`` fails on a worsened answer, not just a
    slower one: the acceptance scenario from the observability PR."""

    ARGV = [
        "--quick",
        "--repeat",
        "1",
        "--warmup",
        "0",
        "--filter",
        "cwsc-n600-packed",
        "--no-history",
        "--tolerance",
        "1000",
    ]

    def test_injected_quality_regression_fails_check(
        self, tmp_path, monkeypatch, capsys
    ):
        import dataclasses

        import repro.bench as bench_module

        baseline = tmp_path / "baseline.json"
        assert main(self.ARGV + ["--out", str(baseline)]) == 0
        base_quality = json.loads(baseline.read_text())["benchmarks"][
            "bench_fig5_datasize[cwsc-n600-packed]"
        ]["quality"]
        if base_quality["approx_ratio"] is None:
            pytest.skip("LP lower bound unavailable (no scipy)")

        real_cwsc = bench_module._SOLVERS["cwsc"]

        def worsened(system, backend):
            result = real_cwsc(system, backend)
            # A deliberately worse answer: triple the cost, same cover.
            return dataclasses.replace(
                result, total_cost=result.total_cost * 3.0
            )

        monkeypatch.setitem(bench_module._SOLVERS, "cwsc", worsened)
        code = main(
            self.ARGV
            + ["--out", "-", "--check", "--baseline", str(baseline)]
        )
        assert code == 1
        assert "[quality]" in capsys.readouterr().err

    def test_unchanged_solver_passes_check(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(self.ARGV + ["--out", str(baseline)]) == 0
        code = main(
            self.ARGV
            + ["--out", "-", "--check", "--baseline", str(baseline)]
        )
        assert code == 0


class TestCli:
    def test_writes_report_and_checks_baseline(self, tmp_path):
        out = tmp_path / "BENCH_micro.json"
        baseline = tmp_path / "baseline.json"
        history = tmp_path / "history.jsonl"
        argv = [
            "--quick",
            "--repeat",
            "1",
            "--warmup",
            "0",
            "--filter",
            "cwsc-n600-packed",
            "--history",
            str(history),
            "--out",
            str(baseline),
        ]
        assert main(argv) == 0
        assert json.loads(baseline.read_text())["schema"] == SCHEMA

        argv = argv[:-1] + [
            str(out),
            "--baseline",
            str(baseline),
            "--check",
            "--tolerance",
            "100",
        ]
        assert main(argv) == 0
        assert out.exists()
        # Both runs appended one trend line each.
        lines = [
            json.loads(line)
            for line in history.read_text().splitlines()
            if line
        ]
        assert len(lines) == 2
        assert all(line["schema"] == HISTORY_SCHEMA for line in lines)
        assert lines[0]["cells"][0]["median_seconds"] > 0

    def test_backend_choices_are_all_or_one(self):
        with pytest.raises(SystemExit):
            main(["--quick", "--backend", "both", "--out", "-"])

    def test_check_without_baseline_is_an_input_error(self, tmp_path):
        code = main(
            [
                "--quick",
                "--repeat",
                "1",
                "--warmup",
                "0",
                "--filter",
                "cwsc-n600-packed",
                "--out",
                "-",
                "--no-history",
                "--check",
                "--baseline",
                str(tmp_path / "nope.json"),
            ]
        )
        assert code == ValidationError.exit_code

    def test_scwsc_bench_subcommand_wired(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "report.json"
        code = cli_main(
            [
                "bench",
                "--quick",
                "--repeat",
                "1",
                "--warmup",
                "0",
                "--filter",
                "cwsc-n600-packed",
                "--history",
                str(tmp_path / "history.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "bench_fig5_datasize" in capsys.readouterr().out
        assert out.exists()
