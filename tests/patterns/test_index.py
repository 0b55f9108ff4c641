"""Unit tests for the pattern inverted index."""

import pytest

from repro.errors import ValidationError
from repro.patterns.index import LatticeSet, PatternData, PatternIndex
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable


@pytest.fixture
def index() -> PatternIndex:
    table = PatternTable(
        attributes=("Type", "Loc"),
        rows=[("A", "W"), ("A", "E"), ("B", "W"), ("B", "E"), ("B", "E")],
    )
    return PatternIndex(table)


class TestBenefit:
    def test_all_pattern(self, index):
        assert index.benefit(Pattern((ALL, ALL))) == frozenset(range(5))
        assert index.all_rows == frozenset(range(5))

    def test_single_constant(self, index):
        assert index.benefit(Pattern(("A", ALL))) == frozenset({0, 1})
        assert index.benefit(Pattern((ALL, "E"))) == frozenset({1, 3, 4})

    def test_two_constants(self, index):
        assert index.benefit(Pattern(("B", "E"))) == frozenset({3, 4})

    def test_absent_value(self, index):
        assert index.benefit(Pattern(("C", ALL))) == frozenset()
        assert index.benefit(Pattern(("A", "Nope"))) == frozenset()

    def test_arity_mismatch(self, index):
        with pytest.raises(ValidationError):
            index.benefit(Pattern((ALL,)))


class TestChildren:
    def test_children_partition_parent(self, index):
        parent = Pattern((ALL, ALL))
        children = {
            child: frozenset(rows)
            for _, child, rows in index.children_values(
                parent.values, index.benefit(parent)
            )
        }
        for child, ben in children.items():
            assert ben  # no empty children materialized
            assert ben <= index.benefit(parent)
            assert ben == index.benefit(Pattern(child))
        for position in (0, 1):
            slice_union: set = set()
            for child, ben in children.items():
                if child[position] is not ALL:
                    slice_union |= ben
            assert slice_union == set(range(5))

    def test_children_of_leafless_pattern(self, index):
        fully_constant = ("A", "W")
        assert list(index.children_values(fully_constant, [0])) == []

    def test_children_values_agree_with_benefit(self, index):
        parent = Pattern((ALL, "E"))
        for _, child, rows in index.children_values(
            parent.values, index.benefit(parent)
        ):
            assert frozenset(rows) == index.benefit(Pattern(child))

    def test_children_respect_given_benefit(self, index):
        # Restricting the parent benefit restricts the children.
        children = list(
            index.children_values((ALL, ALL), [0, 2])  # only the W rows
        )
        values = {child for _, child, _ in children}
        assert (ALL, "E") not in values
        assert (ALL, "W") in values

    def test_children_yield_specialization_position(self, index):
        for position, child, _ in index.children_values(
            (ALL, ALL), range(5)
        ):
            assert child[position] is not ALL
            other = 1 - position
            assert child[other] is ALL

    def test_deterministic_order(self, index):
        first = list(index.children_values((ALL, ALL), range(5)))
        second = list(index.children_values((ALL, ALL), range(5)))
        assert [c for _, c, _ in first] == [c for _, c, _ in second]


class TestChildFilter:
    """The lattice rule of Fig. 3 line 16 and Fig. 4 line 33."""

    def test_min_rows_skips_small_children(self, index):
        children = {
            child
            for _, child, _ in index.children_values(
                (ALL, ALL), range(5), min_rows=3
            )
        }
        # A has 2 rows, W has 2: only B (3 rows) and E (3 rows) clear 3.
        assert children == {("B", ALL), (ALL, "E")}

    def test_exclude_skips_members_of_any_container(self, index):
        children = [
            child
            for _, child, _ in index.children_values(
                (ALL, ALL), range(5), exclude=({("A", ALL)}, {(ALL, "W")})
            )
        ]
        assert children == [("B", ALL), (ALL, "E")]

    def test_other_parents_must_all_be_in_the_container(self, index):
        # ("A", "E") has parents (ALL, "E") and ("A", ALL). Expanding
        # ("A", ALL), only the other parent (ALL, "E") is looked up.
        def children(parents_in):
            return [
                child
                for _, child, _ in index.children_values(
                    ("A", ALL), [0, 1], parents_in=parents_in
                )
            ]

        assert children(LatticeSet()) == []
        assert children(LatticeSet([(ALL, "E")])) == [("A", "E")]
        assert children(LatticeSet([(ALL, "E"), (ALL, "W")])) == [
            ("A", "E"), ("A", "W")
        ]

    def test_children_of_the_root_have_no_other_parent(self, index):
        unfiltered = list(index.children_values((ALL, ALL), range(5)))
        filtered = list(
            index.children_values(
                (ALL, ALL), range(5), parents_in=LatticeSet()
            )
        )
        assert filtered == unfiltered

    def test_filters_see_containers_updated_between_yields(self, index):
        # The checks run as each child is reached, so a caller that adds
        # yielded children to an excluded container affects later ones.
        seen: set = set()
        yielded = []
        for _, child, _ in index.children_values(
            (ALL, ALL), range(5), exclude=(seen,)
        ):
            yielded.append(child)
            seen.add(child)
        assert len(yielded) == len(set(yielded)) == 4


class TestLatticeSet:
    """The slot index the all-parents rule reads."""

    def test_members_fill_one_slot_per_constant(self):
        members = LatticeSet([("A", "E", ALL), ("A", "W", ALL)])
        assert ("A", "E", ALL) in members and ("A", "W", ALL) in members
        assert members.allowed([(ALL, "E", ALL)], 0) == {"A"}
        assert members.allowed([("A", ALL, ALL)], 1) == {"E", "W"}
        assert not members.allowed([("A", "E", ALL)], 2)

    def test_allowed_intersects_every_parents_slot(self):
        members = LatticeSet(
            [("A", ALL, "x"), ("B", ALL, "x"), (ALL, "E", "x")]
        )
        # Children of (ALL, "E", "x") at position 0: the parent (ALL,
        # ALL, "x") has "A" and "B" filled in, but (ALL, "E", ALL) none.
        assert members.allowed([(ALL, ALL, "x")], 0) == {"A", "B"}
        assert not members.allowed([(ALL, ALL, "x"), (ALL, "E", ALL)], 0)
        members.add(("A", "E", ALL))
        assert members.allowed([(ALL, ALL, "x"), (ALL, "E", ALL)], 0) == {
            "A"
        }

    def test_discard_empties_slots(self):
        members = LatticeSet([("A", "E"), ("A", "W")])
        # The first query indexes the members; changes keep it in step.
        assert members.allowed([("A", ALL)], 1) == {"E", "W"}
        members.discard(("A", "E"))
        members.discard(("A", "E"))  # absent: no-op
        assert ("A", "E") not in members
        assert members.allowed([("A", ALL)], 1) == {"W"}
        members.discard(("A", "W"))
        assert not members.allowed([("A", ALL)], 1)
        assert not members.allowed([(ALL, "W")], 0)
        assert ("A", "W") not in members

    def test_slot_answers_the_rule_after_removal(self, index):
        parents = LatticeSet([(ALL, "E"), (ALL, "W")])
        parents.discard((ALL, "W"))
        assert [
            child
            for _, child, _ in index.children_values(
                ("A", ALL), [0, 1], parents_in=parents
            )
        ] == [("A", "E")]


class TestKnownRows:
    """Rows reused from ``known``, as CMC's budget rounds do."""

    def test_a_known_child_reuses_its_rows(self, index):
        data = PatternData(("A", "E"), (1,), 1.0, ())
        assert list(
            index.children_values(("A", ALL), (0, 1), known={("A", "E"): data})
        ) == [(1, ("A", "E"), (1,)), (1, ("A", "W"), [0])]

    def test_the_known_tuple_is_yielded_when_it_prints_the_same(self, index):
        data = PatternData(("A", "E"), (1,), 1.0, ())
        [(_, child, _), _] = index.children_values(
            ("A", ALL), (0, 1), known={("A", "E"): data}
        )
        assert child is data.values

    def test_a_known_child_keeps_its_parents_print(self):
        # (1, "x") is reachable from (1, ALL), whose lowest row prints 1,
        # and from (ALL, "x"), whose child's lowest row prints 1.0.
        table = PatternTable(("A", "B"), [(1, "y"), (1.0, "x")])
        index = PatternIndex(table)
        known = {(1, "x"): PatternData((1, "x"), (1,), 1.0, ())}
        [(_, child, rows)] = index.children_values(
            (ALL, "x"), (1,), known=known
        )
        assert repr(child) == "(1.0, 'x')" and rows == (1,)
