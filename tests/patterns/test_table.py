"""Unit tests for PatternTable."""

import pytest

from repro.errors import ValidationError
from repro.patterns.table import PatternTable


@pytest.fixture
def table() -> PatternTable:
    return PatternTable(
        attributes=("Type", "Loc"),
        rows=[("A", "W"), ("A", "E"), ("B", "W"), ("B", "E")],
        measure=[1.0, 2.0, 3.0, 4.0],
        measure_name="Cost",
    )


class TestConstruction:
    def test_basic(self, table):
        assert table.n_rows == 4
        assert table.n_attributes == 2
        assert len(table) == 4
        assert table.measure == (1.0, 2.0, 3.0, 4.0)
        assert table.measure_name == "Cost"

    def test_no_attributes_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable((), [])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable(("A", "A"), [])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable(("A", "B"), [("x",)])

    def test_measure_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable(("A",), [("x",)], measure=[1.0, 2.0])

    def test_from_records(self):
        records = [
            {"Type": "A", "Loc": "W", "Cost": 5, "ignored": 1},
            {"Type": "B", "Loc": "E", "Cost": 7, "ignored": 2},
        ]
        built = PatternTable.from_records(
            records, ("Type", "Loc"), measure_name="Cost"
        )
        assert built.rows == (("A", "W"), ("B", "E"))
        assert built.measure == (5.0, 7.0)

    def test_csv_round_trip(self, table, tmp_path):
        path = tmp_path / "t.csv"
        table.to_csv(path)
        loaded = PatternTable.from_csv(
            path, ("Type", "Loc"), measure_name="Cost"
        )
        assert loaded.rows == table.rows
        assert loaded.measure == table.measure


class TestDomains:
    def test_active_domain(self, table):
        assert table.active_domain(0) == ("A", "B")
        assert table.active_domain(1) == ("E", "W")

    def test_pattern_space_size(self, table):
        assert table.pattern_space_size() == 9  # (2+1) * (2+1)

    def test_columns_coded_once(self, table, monkeypatch):
        from repro.patterns import table as table_module
        from repro.patterns.enumerate import pattern_csr
        from repro.patterns.index import PatternIndex
        from repro.patterns.stats import profile_table

        calls = []
        code = table_module.TableCodes

        def counting(*args):
            calls.append(args)
            return code(*args)

        monkeypatch.setattr(table_module, "TableCodes", counting)
        pattern_csr(table)
        PatternIndex(table)
        PatternIndex(table)
        profile_table(table)
        table.active_domain(1)
        assert len(calls) == 1

    def test_codes_use_a_narrow_dtype(self, table):
        coded = table.codes()
        assert coded.codes.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1]]
        assert coded.ranks.tolist() == [[1, 1, 2, 2], [2, 1, 2, 1]]
        assert coded.values == (("A", "B"), ("W", "E"))
        assert coded.codes.itemsize == coded.ranks.itemsize == 1


class TestTransformations:
    def test_project(self, table):
        projected = table.project(["Loc"])
        assert projected.attributes == ("Loc",)
        assert projected.rows == (("W",), ("E",), ("W",), ("E",))
        assert projected.measure == table.measure

    def test_project_unknown_attribute(self, table):
        with pytest.raises(ValidationError):
            table.project(["Nope"])

    def test_sample_deterministic(self, table):
        a = table.sample(2, seed=5)
        b = table.sample(2, seed=5)
        assert a.rows == b.rows
        assert a.n_rows == 2

    def test_sample_too_large_rejected(self, table):
        with pytest.raises(ValidationError):
            table.sample(99)

    def test_take_preserves_order(self, table):
        sub = table.take([2, 0])
        assert sub.rows == (("B", "W"), ("A", "W"))
        assert sub.measure == (3.0, 1.0)

    def test_with_measure(self, table):
        swapped = table.with_measure([9, 9, 9, 9], measure_name="x")
        assert swapped.measure == (9.0,) * 4
        assert swapped.measure_name == "x"
        assert table.measure == (1.0, 2.0, 3.0, 4.0)  # original untouched

    def test_extend(self, table):
        grown = table.extend(table)
        assert grown.n_rows == 8
        assert grown.measure[:4] == table.measure

    def test_extend_schema_mismatch(self, table):
        other = PatternTable(("X",), [("a",)])
        with pytest.raises(ValidationError):
            table.extend(other)

    def test_extend_measure_mismatch(self, table):
        other = PatternTable(("Type", "Loc"), [("A", "W")])
        with pytest.raises(ValidationError):
            table.extend(other)
