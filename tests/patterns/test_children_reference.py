"""The indexed all-parents rule against the row-by-row reference.

:meth:`PatternIndex.children_values` answers Fig. 3 line 16 and Fig. 4
line 33 from a slot index and reuses rows across CMC budget rounds;
:func:`tests.patterns.lattice_oracle.children_by_row` groups every row
of every parent and tests each child's parents one by one. Each lattice
solver must give byte-identical answers and work counters on both. The
tables mix values that are equal but print differently (``1``, ``1.0``,
``True``; ``0``, ``-0.0``, ``False``): a child takes its value's print
from its lowest row and its other constants' from the parent that
built it, so the labels show any slip.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.incremental import IncrementalCWSC
from repro.patterns.index import PatternIndex
from repro.patterns.optimized_cmc import optimized_cmc
from repro.patterns.optimized_cwsc import optimized_cwsc
from repro.patterns.table import PatternTable

from tests.patterns.lattice_oracle import children_by_row

mixed_values = st.sampled_from(["a", "b", 1, 1.0, True, 0, -0.0, False])
costs = st.sampled_from(["max", "sum", "l2"])
ks = st.integers(1, 4)
fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def mixed_tables(draw, min_rows=2, max_rows=40):
    n_attrs = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(*([mixed_values] * n_attrs)),
            min_size=min_rows,
            max_size=max_rows,
        )
    )
    measure = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    return PatternTable([f"D{i}" for i in range(n_attrs)], rows, measure)


def answer(result) -> tuple:
    """Everything that must match byte for byte."""
    metrics = result.metrics
    return (
        list(result.set_ids),
        [repr(label.values) for label in result.labels],
        float(result.total_cost).hex(),
        result.covered,
        metrics.sets_considered,
        metrics.marginal_updates,
        metrics.selections,
        metrics.budget_rounds,
    )


def on_both(solve) -> tuple:
    """``solve()`` on the indexed rule, then on the reference."""
    indexed = solve()
    with mock.patch.object(PatternIndex, "children_values", children_by_row):
        reference = solve()
    return indexed, reference


class TestLatticeSolversMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(mixed_tables(), ks, fractions, costs)
    def test_optimized_cwsc(self, table, k, s_hat, cost):
        indexed, reference = on_both(
            lambda: answer(
                optimized_cwsc(table, k, s_hat, cost, on_infeasible="partial")
            )
        )
        assert indexed == reference

    @settings(max_examples=60, deadline=None)
    @given(
        mixed_tables(),
        ks,
        fractions,
        costs,
        st.sampled_from([{}, {"eps": 1.0}, {"l": 0.5}]),
    )
    def test_optimized_cmc(self, table, k, s_hat, cost, levels):
        indexed, reference = on_both(
            lambda: answer(
                optimized_cmc(
                    table, k, s_hat, cost=cost, on_infeasible="partial",
                    **levels,
                )
            )
        )
        assert indexed == reference

    @settings(max_examples=40, deadline=None)
    @given(
        mixed_tables(min_rows=4),
        ks,
        st.floats(min_value=0.2, max_value=0.9),
        costs,
        st.integers(1, 4),
    )
    def test_incremental_cwsc(self, table, k, s_hat, cost, batch):
        start = table.n_rows // 2

        def maintain() -> list:
            inc = IncrementalCWSC(table.take(range(start)), k, s_hat, cost)
            results = [answer(inc.current_result())]
            for first in range(start, table.n_rows, batch):
                ids = range(first, min(table.n_rows, first + batch))
                results.append(answer(inc.add_records(table.take(ids))))
            stats = inc.stats
            return results + [
                (stats.kept, stats.repaired, stats.recomputed,
                 stats.repair_failures)
            ]

        indexed, reference = on_both(maintain)
        assert indexed == reference
