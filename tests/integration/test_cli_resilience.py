"""CLI failure semantics: exit codes, --timeout/--fallback, run memo."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datasets.entities import entities_table
from repro.experiments import quality_grid
from repro.resilience import FaultConfig, chaos


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "entities.csv"
    entities_table().to_csv(path)
    return str(path)


def _solve_args(csv_path, *extra):
    return [
        "solve", csv_path,
        "--attributes", "Type,Location",
        "--measure", "Cost",
        "-k", "3", "-s", "0.5",
        *extra,
    ]


class TestSolveTimeout:
    def test_timeout_flag_routes_through_resilience(self, csv_path, capsys):
        assert main(_solve_args(csv_path, "--timeout", "30")) == 0
        out = capsys.readouterr().out
        assert "resilience: answered by stage" in out

    def test_tiny_timeout_still_answers(self, csv_path, capsys):
        # Pattern systems always contain the all-wildcards full cover,
        # so even a spent deadline degrades to a feasible answer.
        assert main(_solve_args(csv_path, "--timeout", "0.000001")) == 0
        out = capsys.readouterr().out
        assert "resilience: answered by stage" in out


class TestSolveFallback:
    def test_bare_fallback_uses_default_chain(self, csv_path, capsys):
        assert main(_solve_args(csv_path, "--fallback")) == 0
        assert "resilience:" in capsys.readouterr().out

    def test_explicit_chain(self, csv_path, capsys):
        code = main(
            _solve_args(csv_path, "--fallback", "cwsc,universal")
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answered by stage 'cwsc'" in out

    def test_json_payload_carries_provenance(self, csv_path, capsys):
        code = main(
            _solve_args(csv_path, "--fallback", "cwsc,universal", "--json")
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        prov = payload["resilience"]
        assert prov["stage"] == "cwsc"
        assert [r["stage"] for r in prov["stages"]] == ["cwsc"]

    def test_unknown_stage_is_bad_input_exit_2(self, csv_path, capsys):
        code = main(_solve_args(csv_path, "--fallback", "warp-drive"))
        assert code == 2
        assert "unknown chain stage" in capsys.readouterr().err

    def test_survives_injected_lp_failures(self, csv_path, capsys):
        with chaos(FaultConfig(lp_failure=1.0, seed=5)):
            code = main(
                _solve_args(
                    csv_path, "--fallback", "lp_rounding,cwsc,universal"
                )
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "lp_rounding" in out
        assert "transient_exhausted" in out


class TestSolveErrorReporting:
    def test_bad_csv_path_exits_nonzero_with_stderr(self, capsys):
        code = main(_solve_args("/nonexistent/file.csv"))
        captured = capsys.readouterr()
        assert code != 0
        assert captured.err != ""

    def test_bad_coverage_is_bad_input(self, csv_path, capsys):
        code = main(
            [
                "solve", csv_path,
                "--attributes", "Type,Location",
                "-k", "3", "-s", "2.5",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err != ""


class TestRunMemo:
    def test_table4_then_table5_build_one_grid_and_write_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(quality_grid, "_grid_cache", {})
        monkeypatch.chdir(tmp_path)
        builds = []
        real_build = quality_grid.build_set_system
        monkeypatch.setattr(
            quality_grid,
            "build_set_system",
            lambda *a, **kw: builds.append(1) or real_build(*a, **kw),
        )
        assert main(["run", "table4", "--scale", "small"]) == 0
        assert main(["run", "table5", "--scale", "small"]) == 0
        captured = capsys.readouterr()
        assert "Table IV" in captured.out and "Table V" in captured.out
        assert len(builds) == 1
        assert not (tmp_path / ".scwsc-checkpoints").exists()


class TestSolveIsolate:
    def test_isolated_solve_matches_inline(self, csv_path, capsys):
        assert main(_solve_args(csv_path, "--timeout", "30")) == 0
        inline_out = capsys.readouterr().out

        assert main(
            _solve_args(
                csv_path, "--timeout", "30",
                "--isolate", "--memory-limit", "512",
            )
        ) == 0
        isolated_out = capsys.readouterr().out
        assert "pool: 1 attempt(s), 0 requeue(s)" in isolated_out
        assert "attempt 1 (worker 0): ok" in isolated_out

        def result_block(text):
            lines = []
            for line in text.splitlines():
                if line.startswith(("pool:", "resilience:")):
                    break
                lines.append(line)
            return lines

        assert result_block(isolated_out) == result_block(inline_out)

    def test_isolate_json_payload_carries_pool_provenance(
        self, csv_path, capsys
    ):
        code = main(_solve_args(csv_path, "--isolate", "--json"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["pool"]["attempts"][0]["outcome"] == "ok"
        assert payload["resilience"]["stage"]

    def test_memory_limit_without_isolate_is_bad_input(
        self, csv_path, capsys
    ):
        code = main(_solve_args(csv_path, "--memory-limit", "512"))
        assert code == 2
        assert "--memory-limit requires --isolate" in capsys.readouterr().err


class TestBatch:
    def _batch_args(self, requests_path, csv_path, out_path, *extra):
        return [
            "batch", str(requests_path),
            "--csv", csv_path,
            "--attributes", "Type,Location",
            "--measure", "Cost",
            "--out", str(out_path),
            "--workers", "2",
            *extra,
        ]

    def test_jsonl_in_jsonl_out(self, tmp_path, csv_path, capsys):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            "\n".join(
                [
                    '{"k": 3, "s": 0.5, "tag": "a"}',
                    "# a comment line",
                    '{"k": 4, "s": 0.7, "solver": "cwsc", "tag": "b"}',
                    "",
                ]
            )
        )
        out_path = tmp_path / "results.jsonl"
        code = main(self._batch_args(requests_path, csv_path, out_path))
        assert code == 0
        lines = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert sorted(entry["tag"] for entry in lines) == ["a", "b"]
        for entry in lines:
            assert entry["status"] == "ok"
            assert entry["result"]["feasible"] is True
            assert entry["pool"]["attempts"][0]["outcome"] == "ok"
        assert "2 request(s) run, 0 failed" in capsys.readouterr().err

    def test_invalid_line_reported_and_exit_3(
        self, tmp_path, csv_path, capsys
    ):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            '{"k": 3, "s": 0.5, "tag": "good"}\n'
            "this is not json\n"
            '{"s": 0.5, "tag": "missing-k"}\n'
        )
        out_path = tmp_path / "results.jsonl"
        code = main(self._batch_args(requests_path, csv_path, out_path))
        assert code == 3
        lines = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        by_status = {}
        for entry in lines:
            by_status.setdefault(entry["status"], []).append(entry)
        assert len(by_status["invalid"]) == 2
        assert all("error" in e for e in by_status["invalid"])
        assert [e["tag"] for e in by_status["ok"]] == ["good"]

    def test_lines_validated_like_solve_bodies(
        self, tmp_path, csv_path, capsys
    ):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            '{"k": 3, "s": 0.5, "tag": "good"}\n'
            '{"k":3,"s":0.5,"bogus":1,"solver":"cmc","options":{"b":"two"}}\n'
            '{"k": 3, "s": 0.5, "solver": "cmc", "options": {"b": "two"}}\n'
            '{"k": 3, "s": 0.5, "timeout": 5}\n'
            '{"k": 3, "s": 0.5, "system": {"n": "x", "sets": []}}\n'
        )
        out_path = tmp_path / "results.jsonl"
        code = main(self._batch_args(requests_path, csv_path, out_path))
        assert code == 3
        lines = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        invalid = {e["tag"]: e["error"] for e in lines
                   if e["status"] == "invalid"}
        assert sorted(invalid) == ["line-2", "line-3", "line-4", "line-5"]
        assert "unknown field(s) ['bogus']" in invalid["line-2"]
        assert "'options' key 'b' must be a number" in invalid["line-3"]
        assert "unknown field(s) ['timeout']" in invalid["line-4"]
        assert [e["tag"] for e in lines if e["status"] == "ok"] == ["good"]
        # Invalid lines never reach the pool.
        assert "1 request(s) run, 4 failed" in capsys.readouterr().err

    def test_missing_requests_file_is_an_io_error(
        self, tmp_path, csv_path, capsys
    ):
        code = main(
            self._batch_args(
                tmp_path / "nope.jsonl", csv_path, tmp_path / "out.jsonl"
            )
        )
        assert code != 0
        assert capsys.readouterr().err != ""


class TestKeyboardInterrupt:
    def test_ctrl_c_exits_130(self, csv_path, capsys, monkeypatch):
        from repro import cli as cli_module

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_cmd_solve", boom)
        assert main(_solve_args(csv_path)) == 130
        assert "interrupted" in capsys.readouterr().err
