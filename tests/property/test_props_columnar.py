"""The columnar pattern enumeration matches the row-by-row reference.

:func:`repro.patterns.build_set_system` codes each column, groups
(mask, row) pairs with one sort and wraps the CSR in a CSR-backed
:class:`SetSystem`. Over random tables — ints, strings, ``None``, mixed
types, values whose ``repr`` order differs from their natural order,
equal values that print differently, distinct values that print alike —
and every registered cost function, it must give the reference's set
ids, benefits, labels and bit-equal costs, the same packed layout and
tie-break ranks, and identical solver answers on both backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cmc, cmc_epsilon, cwsc, verify_result
from repro.core.greedy_common import canonical_keys
from repro.core.packed import PackedLayout, canonical_ranks
from repro.core.setsystem import WeightedSet
from repro.errors import ValidationError
from repro.patterns import build_set_system, enumerate_nonempty_patterns
from repro.patterns.enumerate import pattern_csr
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

from tests.patterns.oracle import build_by_row, enumerate_by_row

COSTS = ("max", "sum", "mean", "count", "l2")


class Same:
    """Distinct values (identity equality) that share one ``repr``."""

    def __repr__(self) -> str:
        return "Same()"


SAME_A, SAME_B = Same(), Same()

#: 9 < 10 but repr("10") < repr("9"); 1, 1.0 and True are equal but
#: print differently; SAME_A and SAME_B differ but print alike.
VALUES = st.sampled_from(
    [0, 1, 9, 10, -3, "a", "b", "10", "9", None, 1.0, True, SAME_A, SAME_B]
)
MEASURES = st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.0, 7.25, 100.0])


@st.composite
def tables(draw, max_rows: int = 12, max_attrs: int = 4):
    n_attrs = draw(st.integers(1, max_attrs))
    rows = draw(
        st.lists(st.tuples(*([VALUES] * n_attrs)), min_size=1,
                 max_size=max_rows)
    )
    measure = draw(
        st.lists(MEASURES, min_size=len(rows), max_size=len(rows))
    )
    return PatternTable([f"D{i}" for i in range(n_attrs)], rows, measure)


def _bits(cost: float) -> str:
    return float(cost).hex() if not math.isnan(cost) else "nan"


def assert_same_system(columnar, reference) -> None:
    assert columnar.n_elements == reference.n_elements
    assert columnar.n_sets == reference.n_sets
    for set_id in range(reference.n_sets):
        want = reference.sets[set_id]
        label = columnar.label_of(set_id)
        assert label == want.label
        assert repr(label) == repr(want.label)
        got = columnar[set_id]  # served from the arrays
        assert got.benefit == want.benefit
        assert _bits(got.cost) == _bits(want.cost)
    for got, want in zip(columnar.sets, reference.sets):
        assert got.set_id == want.set_id
        assert got.benefit == want.benefit
        assert _bits(got.cost) == _bits(want.cost)
        assert repr(got.label) == repr(want.label)


def assert_same_layout(columnar, reference) -> None:
    got, want = PackedLayout.build(columnar), PackedLayout.build(reference)
    for name in ("sizes", "costs", "data", "cols", "rows", "indptr",
                 "owners_data", "owners_indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.dense is None) == (want.dense is None)
    if got.dense is not None:
        assert np.array_equal(got.dense, want.dense)


def key_ranks(system) -> np.ndarray:
    keys = canonical_keys(system)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return ranks


def assert_same_answers(columnar, reference, k, s_hat) -> None:
    runs = [
        lambda system, backend: cwsc(
            system, k, s_hat, on_infeasible="partial", backend=backend
        ),
        lambda system, backend: cmc(system, k, s_hat, backend=backend),
        lambda system, backend: cmc_epsilon(
            system, k, s_hat, eps=0.5, backend=backend
        ),
    ]
    for run in runs:
        want = run(reference, "set")
        for backend in ("set", "packed"):
            got = run(columnar, backend)
            assert got.set_ids == want.set_ids
            assert [repr(label) for label in got.labels] == [
                repr(label) for label in want.labels
            ]
            assert got.total_cost == want.total_cost
            assert got.covered == want.covered
            assert got.feasible == want.feasible
            assert got.metrics.selections == want.metrics.selections
            assert (got.metrics.marginal_updates
                    == want.metrics.marginal_updates)
            assert got.metrics.budget_rounds == want.metrics.budget_rounds
            assert (got.metrics.sets_considered
                    == want.metrics.sets_considered)
            assert verify_result(columnar, got) == []


class TestMatchesRowByRow:
    @settings(max_examples=120, deadline=None)
    @given(tables(), st.sampled_from(COSTS))
    def test_sets_labels_and_costs(self, table, cost):
        assert_same_system(
            build_set_system(table, cost), build_by_row(table, cost)
        )

    @settings(max_examples=80, deadline=None)
    @given(tables())
    def test_mapping_view(self, table):
        got = enumerate_nonempty_patterns(table)
        want = enumerate_by_row(table)
        assert got == want
        assert sorted(map(repr, got)) == sorted(map(repr, want))

    @settings(max_examples=80, deadline=None)
    @given(tables(), st.sampled_from(COSTS))
    def test_layout_and_ranks(self, table, cost):
        columnar = build_set_system(table, cost)
        reference = build_by_row(table, cost)
        assert_same_layout(columnar, reference)
        assert np.array_equal(canonical_ranks(columnar), key_ranks(reference))
        assert np.array_equal(canonical_ranks(columnar), key_ranks(columnar))

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(1, 4),
           st.sampled_from([0.2, 0.5, 0.8, 1.0]), st.sampled_from(COSTS))
    def test_solver_answers(self, table, k, s_hat, cost):
        assert_same_answers(
            build_set_system(table, cost), build_by_row(table, cost),
            k, s_hat,
        )


class TestEdgeTables:
    def test_one_attribute_one_row(self):
        table = PatternTable(("A",), [(10,)], [3.0])
        system = build_set_system(table)
        assert system.n_sets == 2
        assert_same_system(system, build_by_row(table))

    def test_repr_order_differs_from_value_order(self):
        table = PatternTable(("A",), [(10,), (9,), (10,)], [1.0, 2.0, 3.0])
        system = build_set_system(table)
        # ALL first, then repr order: "10" < "9".
        assert [system.label_of(i) for i in range(3)] == [
            Pattern((ALL,)), Pattern((10,)), Pattern((9,))
        ]
        assert_same_system(system, build_by_row(table))

    def test_radix_product_above_int64(self):
        # Multipliers coprime to 240 give every column 240 values, and
        # 241^8 > 2^63: the mixed-radix key is re-ranked mid-build.
        steps = (1, 7, 11, 13, 17, 19, 23, 29)
        rows = [tuple(f"v{r * step % 240}" for step in steps)
                for r in range(240)]
        table = PatternTable([f"D{i}" for i in range(8)], rows,
                             [float(r % 17) for r in range(240)])
        assert math.prod(
            len(table.active_domain(i)) + 1 for i in range(8)
        ) > 2**63
        columnar = build_set_system(table)
        reference = build_by_row(table)
        assert columnar.sets == reference.sets
        assert_same_layout(columnar, reference)

    def test_repr_colliding_values_keep_row_order(self):
        # SAME_A and SAME_B tie on sort key; the pattern whose first row
        # comes first takes the lower id, as in a row-by-row enumeration.
        table = PatternTable(
            ("A", "B"),
            [(SAME_B, "x"), (SAME_A, "x"), (SAME_A, "y"), (SAME_B, "y")],
            [4.0, 3.0, 2.0, 1.0],
        )
        system = build_set_system(table)
        expected = [
            (ALL, ALL), (ALL, "x"), (ALL, "y"), (SAME_B, ALL),
            (SAME_A, ALL), (SAME_B, "x"), (SAME_A, "x"), (SAME_A, "y"),
            (SAME_B, "y"),
        ]
        assert [system.label_of(i).values for i in range(system.n_sets)] \
            == expected
        assert_same_system(system, build_by_row(table))
        assert np.array_equal(canonical_ranks(system), key_ranks(system))

    def test_equal_values_that_print_differently(self):
        table = PatternTable(
            ("A",), [(1.0,), (1,), (True,), (2,)], [1.0, 2.0, 3.0, 4.0]
        )
        system = build_set_system(table)
        assert system.n_sets == 3
        assert repr(system.label_of(1)) == "Pattern(1.0)"
        assert_same_system(system, build_by_row(table))

    @pytest.mark.parametrize("cost", COSTS)
    def test_nan_measure_agrees_with_reference(self, cost):
        table = PatternTable(
            ("A",), [("a",), ("a",), ("b",)], [float("nan"), 1.0, 2.0]
        )
        try:
            want = build_by_row(table, cost)
        except ValidationError:
            with pytest.raises(ValidationError):
                build_set_system(table, cost)
            return
        assert_same_system(build_set_system(table, cost), want)

    def test_signed_zero_max_is_bit_exact(self):
        table = PatternTable(("A",), [("a",), ("a",)], [0.0, -0.0])
        columnar, reference = build_set_system(table), build_by_row(table)
        assert _bits(columnar[1].cost) == _bits(reference[1].cost)
        assert_same_system(columnar, reference)

    def test_empty_table_has_no_patterns(self):
        csr = pattern_csr(PatternTable(("A", "B"), []))
        assert csr.n_patterns == 0 and csr.rows.size == 0


class TestNoPerSetObjects:
    def test_packed_solve_and_verify_create_no_weighted_set(
        self, monkeypatch
    ):
        from repro.datasets import load_dataset
        from repro.resilience.pool.protocol import (
            system_from_payload,
            system_to_payload,
        )

        table = load_dataset("lbl:400@3")
        created = []
        original = WeightedSet.__post_init__
        monkeypatch.setattr(
            WeightedSet, "__post_init__",
            lambda ws: created.append(ws.set_id) or original(ws),
        )
        system = build_set_system(table, "max")
        results = [
            cwsc(system, 5, 0.5, backend="packed"),
            cmc(system, 5, 0.5, backend="packed"),
            cmc_epsilon(system, 5, 0.5, eps=0.5, backend="packed"),
        ]
        for result in results:
            assert verify_result(system, result) == []
            assert all(label is not None for label in result.labels)
        assert system.has_full_cover and system.total_cost > 0
        payload = system_to_payload(system)
        assert created == []
        system.sets  # the set oracle's view is still there, on demand
        assert len(created) == system.n_sets
        assert [(ws.benefit, ws.cost) for ws in system_from_payload(payload)] \
            == [(ws.benefit, ws.cost) for ws in system.sets]
