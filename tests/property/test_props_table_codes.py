"""A table's column codes agree with dict-based references.

:meth:`PatternTable.codes` decides, once per table, which cells hold
equal values and how values order by ``repr``; enumeration, the lattice
index and the table profile read it. Over random tables mixing ``1``,
``1.0`` and ``True`` (equal, printed differently), distinct objects that
share a ``repr``, and values whose ``repr`` order differs from their
natural order, the codes must match what a dict keyed by the column's
values and a sort by ``repr`` give.
"""

from __future__ import annotations

from operator import is_

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.stats import profile_table
from repro.patterns.table import PatternTable


class Same:
    """Distinct values (identity equality) that share one ``repr``."""

    def __repr__(self) -> str:
        return "Same()"


SAME_A, SAME_B = Same(), Same()

VALUES = st.sampled_from(
    [1, 1.0, True, 0, False, 9, 10, "10", "9", "a", None, SAME_A, SAME_B]
)


@st.composite
def tables(draw, max_rows: int = 14, max_attrs: int = 3):
    n_attrs = draw(st.integers(1, max_attrs))
    rows = draw(
        st.lists(st.tuples(*([VALUES] * n_attrs)), min_size=0,
                 max_size=max_rows)
    )
    return PatternTable([f"D{i}" for i in range(n_attrs)], rows)


def _columns(table: PatternTable) -> list[list]:
    return [
        [row[i] for row in table.rows] for i in range(table.n_attributes)
    ]


@settings(max_examples=150, deadline=None)
@given(tables())
def test_equal_values_share_a_code_in_first_seen_order(table):
    coded = table.codes()
    for codes, values, column in zip(
        coded.codes.tolist(), coded.values, _columns(table)
    ):
        first_seen = dict.fromkeys(column)
        assert all(map(is_, values, first_seen))
        assert len(values) == len(first_seen)
        for a, value in enumerate(column):
            assert values[codes[a]] == value
            for b, other in enumerate(column):
                assert (codes[a] == codes[b]) == (value == other)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_rank_order_is_repr_order(table):
    coded = table.codes()
    for ranks, column in zip(coded.ranks.tolist(), _columns(table)):
        texts = sorted(set(map(repr, column)))
        assert sorted(set(ranks)) == list(range(1, len(texts) + 1))
        for rank, value in zip(ranks, column):
            assert texts[rank - 1] == repr(value)
        by_rank = sorted(range(len(column)), key=ranks.__getitem__)
        by_repr = sorted(range(len(column)), key=lambda r: repr(column[r]))
        assert by_rank == by_repr


@settings(max_examples=150, deadline=None)
@given(tables())
def test_domains_and_profile_match_dict_reference(table):
    profile = profile_table(table)
    space = 1
    for position, column in enumerate(_columns(table)):
        counts: dict = {}
        for value in column:
            counts[value] = counts.get(value, 0) + 1
        domain = table.active_domain(position)
        want = sorted(counts, key=repr)
        assert len(domain) == len(want)
        assert all(map(is_, domain, want))
        space *= len(counts) + 1
        attribute = profile.attributes[position]
        assert attribute.cardinality == len(counts)
        if counts:
            top, top_count = max(
                counts.items(), key=lambda item: (item[1], repr(item[0]))
            )
            assert attribute.top_value is top
            assert attribute.top_share == top_count / table.n_rows
        else:
            assert attribute.top_value is None
            assert attribute.top_share == 0.0
    assert table.pattern_space_size() == space
    assert profile.pattern_space_size == space
