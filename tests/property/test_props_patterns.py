"""Property-based tests on the pattern substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns.enumerate import enumerate_nonempty_patterns
from repro.patterns.index import PatternIndex
from repro.patterns.pattern import ALL, Pattern, values_sort_key

from tests.property.strategies import attr_values, pattern_tables


@st.composite
def patterns(draw, min_attrs=1, max_attrs=4):
    n = draw(st.integers(min_attrs, max_attrs))
    values = draw(
        st.tuples(*([st.one_of(st.just(ALL), attr_values)] * n))
    )
    return Pattern(values)


class TestPatternAlgebra:
    @given(patterns())
    def test_parents_cover_child(self, pattern):
        for parent in pattern.parents():
            assert pattern.is_specialization_of(parent)
            assert parent.n_constants == pattern.n_constants - 1

    @given(patterns())
    def test_sort_key_matches_values_sort_key(self, pattern):
        assert pattern.sort_key() == values_sort_key(pattern.values)

    @given(patterns(), patterns())
    def test_ordering_consistent_with_keys(self, left, right):
        if left.n_attributes != right.n_attributes:
            return
        assert (left < right) == (left.sort_key() < right.sort_key())

    @given(patterns())
    def test_generalize_specialize_round_trip(self, pattern):
        for position in pattern.constant_positions():
            value = pattern.values[position]
            parent = pattern.generalize(position)
            assert parent.specialize(position, value) == pattern


class TestIndexProperties:
    @settings(max_examples=40)
    @given(pattern_tables(with_measure=False))
    def test_benefit_matches_matching_semantics(self, table):
        index = PatternIndex(table)
        pattern = Pattern.all_pattern(table.n_attributes)
        assert index.benefit(pattern) == frozenset(range(table.n_rows))
        # Spot-check a depth-1 pattern from each attribute.
        for position in range(table.n_attributes):
            value = table.rows[0][position]
            values = [ALL] * table.n_attributes
            values[position] = value
            child = Pattern(values)
            expected = {
                row_id
                for row_id, row in enumerate(table.rows)
                if child.matches(row)
            }
            assert index.benefit(child) == expected

    @settings(max_examples=40)
    @given(pattern_tables(with_measure=False))
    def test_children_monotone(self, table):
        """Every child's benefit is contained in its parent's."""
        index = PatternIndex(table)
        parent = Pattern.all_pattern(table.n_attributes)
        parent_ben = index.benefit(parent)
        for _, child, ben in index.children_values(parent.values, parent_ben):
            assert set(ben) <= parent_ben
            assert len(ben) >= 1
            for _, _, grand_ben in index.children_values(child, ben):
                assert set(grand_ben) <= set(ben)

    @settings(max_examples=40)
    @given(pattern_tables(with_measure=False))
    def test_enumeration_agrees_with_index(self, table):
        patterns = enumerate_nonempty_patterns(table)
        index = PatternIndex(table)
        for pattern, ben in patterns.items():
            assert index.benefit(pattern) == ben

    @settings(max_examples=40)
    @given(pattern_tables(with_measure=False))
    def test_children_partition_per_attribute(self, table):
        """For one wildcard attribute, children partition the parent."""
        index = PatternIndex(table)
        parent = Pattern.all_pattern(table.n_attributes)
        by_position: dict[int, set] = {}
        for position, child, rows in index.children_values(
            parent.values, range(table.n_rows)
        ):
            bucket = by_position.setdefault(position, set())
            assert not (bucket & set(rows))  # disjoint within an attribute
            bucket |= set(rows)
        for covered in by_position.values():
            assert covered == set(range(table.n_rows))
