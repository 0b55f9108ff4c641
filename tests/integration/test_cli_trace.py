"""End-to-end tests for `--trace` on the CLI and the `trace` subcommand."""

import json
from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.datasets.entities import entities_table
from repro.obs.schema import validate_trace_file


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "entities.csv"
    entities_table().to_csv(path)
    return str(path)


def _solve_args(csv_path):
    return [
        "solve", csv_path,
        "--attributes", "Type,Location",
        "--measure", "Cost",
        "-k", "2", "-s", "0.5625",
    ]


class TestSolveTrace:
    def test_solve_writes_valid_trace(self, csv_path, tmp_path, capsys):
        trace = tmp_path / "solve.jsonl"
        assert main(_solve_args(csv_path) + ["--trace", str(trace)]) == 0
        assert validate_trace_file(str(trace)) == []

        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[0]["attrs"]["command"] == "solve"
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert {"solve", "preprocess", "select"} <= spans
        # shutdown appends the registry snapshot
        final = records[-1]
        assert final["type"] == "metrics"
        assert "scwsc_solves_total" in final["metrics"]

    def test_quality_record_rides_the_trace(self, csv_path, tmp_path, capsys):
        trace = tmp_path / "quality.jsonl"
        assert main(_solve_args(csv_path) + ["--trace", str(trace)]) == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        quality = [r for r in records if r["type"] == "quality"]
        assert quality and quality[0]["quality"]["sets_used"] >= 1

    def test_cmc_trace_covers_every_budget_round(
        self, csv_path, tmp_path, capsys
    ):
        trace = tmp_path / "cmc.jsonl"
        code = main(
            _solve_args(csv_path)
            + ["--algorithm", "cmc", "--trace", str(trace)]
        )
        assert code == 0
        assert validate_trace_file(str(trace)) == []
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        rounds = [
            r for r in records
            if r["type"] == "span" and r["name"] == "budget_round"
        ]
        selections = [
            r for r in records
            if r["type"] == "span" and r["name"] == "select"
        ]
        assert rounds and selections
        # one span per budget round, numbered from 1
        assert [r["attrs"]["round"] for r in rounds] == list(
            range(1, len(rounds) + 1)
        )

    def test_trace_written_even_on_error(self, tmp_path, capsys):
        trace = tmp_path / "err.jsonl"
        code = main(
            ["solve", str(tmp_path / "missing.csv"),
             "--attributes", "Type", "-k", "2", "-s", "0.5",
             "--trace", str(trace)]
        )
        assert code != 0
        # file is still a self-contained, valid trace
        assert validate_trace_file(str(trace)) == []

    def test_no_trace_file_without_flag(self, csv_path, tmp_path, capsys):
        assert main(_solve_args(csv_path)) == 0
        assert list(tmp_path.glob("*.jsonl")) == []


class _PanelParser(HTMLParser):
    """Collects div ids and any external references in the page."""

    def __init__(self):
        super().__init__()
        self.div_ids = set()
        self.external = []
        self.title_chunks = []
        self._in_title = False

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "div" and "id" in attrs:
            self.div_ids.add(attrs["id"])
        if tag == "title":
            self._in_title = True
        for key in ("src", "href"):
            if attrs.get(key):
                self.external.append(attrs[key])

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False

    def handle_data(self, data):
        if self._in_title:
            self.title_chunks.append(data)


class TestReportDashboard:
    @pytest.fixture
    def solve_trace(self, csv_path, tmp_path, capsys):
        path = tmp_path / "solve.jsonl"
        assert main(_solve_args(csv_path) + ["--trace", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_report_renders_self_contained_dashboard(
        self, solve_trace, tmp_path, capsys
    ):
        out = tmp_path / "report.html"
        code = main(
            ["report", solve_trace, "-o", str(out),
             "--title", "acceptance run"]
        )
        assert code == 0
        page = out.read_text()
        parser = _PanelParser()
        parser.feed(page)
        assert parser.div_ids >= {
            "waterfall", "self-time", "quality", "postmortems"
        }
        assert parser.external == []  # self-contained: no src/href at all
        assert "acceptance run" in "".join(parser.title_chunks)
        # The run's data actually landed in the panels.
        assert 'class="bar' in page
        assert "cwsc" in page

    def test_report_missing_trace_is_an_error(self, tmp_path, capsys):
        code = main(
            ["report", str(tmp_path / "missing.jsonl"),
             "-o", str(tmp_path / "r.html")]
        )
        assert code != 0


class TestTraceSubcommand:
    @pytest.fixture
    def trace_path(self, csv_path, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(_solve_args(csv_path) + ["--trace", str(path)]) == 0
        capsys.readouterr()  # drop the solve output
        return str(path)

    def test_summarize(self, trace_path, capsys):
        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "phase rollup" in out
        assert "self_s" in out
        assert "solve" in out
        assert "select" in out

    def test_validate_ok(self, trace_path, capsys):
        assert main(["trace", "validate", trace_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "wat"}\n')
        assert main(["trace", "validate", str(bad)]) != 0
        assert capsys.readouterr().err != ""

    def test_flamegraph_export(self, trace_path, tmp_path, capsys):
        assert main(["trace", "flamegraph", trace_path]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        assert any(line.startswith("solve") for line in lines)

        out_path = tmp_path / "stacks.txt"
        assert main(
            ["trace", "flamegraph", trace_path, "-o", str(out_path)]
        ) == 0
        assert out_path.read_text().splitlines() == lines

    def test_validate_strict_flags_orphans(self, tmp_path, capsys):
        path = tmp_path / "orphaned.jsonl"
        records = [
            {"type": "meta", "schema": "scwsc-trace/1",
             "wall_time_unix": 1.0, "t": 0.0, "attrs": {}},
            {"type": "span", "name": "solve", "span_id": "a",
             "parent_id": "ghost", "t_start": 0.0, "t_end": 1.0,
             "duration": 1.0, "attrs": {}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["trace", "validate", str(path)]) == 0
        assert main(["trace", "validate", "--strict", str(path)]) != 0
        assert "orphan" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(
            ["trace", "validate", str(tmp_path / "missing.jsonl")]
        ) != 0
