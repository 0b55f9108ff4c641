"""Per-attribute inverted index over a pattern table.

Supports the two benefit-set operations the algorithms need:

* :meth:`PatternIndex.benefit` — the rows matching an arbitrary pattern,
  via intersection of per-value row sets (smallest first);
* :meth:`PatternIndex.children_values` — the non-empty children of a
  pattern with their benefit sets, filtered by the lattice rule of
  Section V-C: Fig. 3 and Fig. 4 admit a child only when all of its
  parents are in a given set (``C`` or ``V``).

The all-parents rule is answered from an index, not tested child by
child. The set passed as ``parents_in`` is a :class:`LatticeSet`, which
files each member under every *slot* it fills: the key is the member
with one constant made ``ALL`` plus that position, and the slot holds
the constants found there. A child of ``p`` at wildcard position ``i``
has one other parent per constant ``q`` of ``p``: ``p`` with ``q`` made
``ALL``, specialized at ``i``. So the values whose children pass are
the intersection of the slots ``(p with q made ALL, i)``, and only
those children are built. A child's rows are the parent's rows
intersected with that value's row set. On ``lbl:6000@11``,
``optimized_cmc`` builds the 22 279 children it keeps, where grouping
every row of each parent built 186 352 and threw 88 % away.
"""

from __future__ import annotations

from operator import is_
from typing import AbstractSet as Set
from typing import Collection, Container, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._typing import AttrValue
from repro.errors import ValidationError
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

#: A pattern's identity: one value-or-ALL per attribute.
Values = tuple[AttrValue, ...]

_NO_VALUES: frozenset = frozenset()


class LatticeSet:
    """A set of pattern value tuples plus the slot index of the
    all-parents rule (see the module docstring).

    The slot index is built on the first :meth:`allowed` call and kept
    in step from then on, so a set that is only tested for membership
    never pays for it. ``add`` and ``discard`` are the only ways to
    change the members.
    """

    __slots__ = ("_members", "_slots")

    def __init__(self, members: Iterable[Values] = ()) -> None:
        self._members: set[Values] = set(members)
        self._slots: dict[tuple[Values, int], set[AttrValue]] | None = None

    def __contains__(self, values: object) -> bool:
        return values in self._members

    def add(self, values: Values) -> None:
        if values not in self._members:
            self._members.add(values)
            if self._slots is not None:
                self._file(values)

    def discard(self, values: Values) -> None:
        if values not in self._members:
            return
        self._members.discard(values)
        slots = self._slots
        if slots is None:
            return
        for position, value in enumerate(values):
            if value is not ALL:
                key = (values[:position] + (ALL,) + values[position + 1:],
                       position)
                slot = slots[key]
                slot.discard(value)
                if not slot:
                    del slots[key]

    def _file(self, values: Values) -> None:
        slots = self._slots
        for position, value in enumerate(values):
            if value is not ALL:
                key = (values[:position] + (ALL,) + values[position + 1:],
                       position)
                slot = slots.get(key)
                if slot is None:
                    slots[key] = {value}
                else:
                    slot.add(value)

    def allowed(
        self, parents: list[Values], position: int
    ) -> "Set[AttrValue]":
        """The constants ``v`` such that every one of ``parents`` with
        ``v`` at ``position`` is a member (do not mutate)."""
        if self._slots is None:
            self._slots = {}
            for values in self._members:
                self._file(values)
        slots = self._slots
        allowed: Set[AttrValue] | None = None
        for parent in parents:
            slot = slots.get((parent, position))
            if not slot:
                return _NO_VALUES
            allowed = slot if allowed is None else allowed & slot
        return _NO_VALUES if allowed is None else allowed


class PatternData:
    """A pattern's static data within one solve: its rows in ascending
    order, its cost, and the sort key of ``values``.

    Equal values can print differently (``1``, ``1.0``, ``True``), and a
    child takes its parent's print of the inherited constants, so the
    sort key holds only for this very ``values`` tuple.
    """

    __slots__ = ("values", "rows", "cost", "sort_key")

    def __init__(
        self,
        values: Values,
        rows: tuple[int, ...],
        cost: float,
        sort_key: tuple,
    ) -> None:
        self.values = values
        self.rows = rows
        self.cost = cost
        self.sort_key = sort_key


_NO_DATA: dict[Values, PatternData] = {}


class PatternIndex:
    """Inverted index ``attribute -> value -> row ids`` for one table.

    Built from the table's column codes (:meth:`PatternTable.codes`):
    one stable ``argsort`` per column groups the rows of each value,
    keyed by the value at the group's lowest row, and children sort by
    the ``repr`` rank at their lowest row.
    :meth:`PatternTable.pattern_index` builds one and shares it.
    """

    def __init__(self, table: PatternTable) -> None:
        self._table = table
        coded = table.codes()
        # One int object per row id, shared by every row set.
        row_ids = list(range(table.n_rows))
        self._by_value: list[dict[AttrValue, frozenset[int]]] = []
        # The same groups as ascending tuples: the rows of the
        # all-wildcards root's children. Keys are the value at each
        # group's lowest row.
        self._root_rows: list[dict[AttrValue, tuple[int, ...]]] = []
        self._ranks: list[list[int]] = coded.ranks.tolist()
        for codes, values in zip(coded.codes, coded.values):
            order = np.argsort(codes, kind="stable")
            ends = np.cumsum(np.bincount(codes))[:-1]
            groups = [
                tuple(map(row_ids.__getitem__, group.tolist()))
                for group in np.split(order, ends)
            ]
            self._by_value.append(
                {value: frozenset(ids) for value, ids in zip(values, groups)}
            )
            self._root_rows.append(dict(zip(values, groups)))
        self._all_rows = frozenset(row_ids)

    @property
    def table(self) -> PatternTable:
        return self._table

    @property
    def all_rows(self) -> frozenset[int]:
        """Row ids of the whole table (benefit of the all-ALL pattern)."""
        return self._all_rows

    # ------------------------------------------------------------------
    def benefit(self, pattern: Pattern) -> frozenset[int]:
        """``Ben(p)``: rows matching the pattern.

        Intersects per-value row sets smallest-first; the all-wildcards
        pattern short-circuits to all rows.
        """
        if pattern.n_attributes != self._table.n_attributes:
            raise ValidationError(
                f"pattern arity {pattern.n_attributes} != table arity "
                f"{self._table.n_attributes}"
            )
        parts = [
            self._by_value[i].get(value, _NO_VALUES)
            for i, value in enumerate(pattern.values)
            if value is not ALL
        ]
        if not parts:
            return self._all_rows
        parts.sort(key=len)
        result = parts[0]
        for part in parts[1:]:
            result = result & part
            if not result:
                return frozenset()
        return result

    # ------------------------------------------------------------------
    def children_values(
        self,
        values: Values,
        benefit: Collection[int],
        parents_in: LatticeSet | None = None,
        exclude: tuple[Container[Values], ...] = (),
        min_rows: float = 0.0,
        known: Mapping[Values, PatternData] | None = None,
    ) -> Iterator[tuple[int, Values, Sequence[int]]]:
        """Yield the qualifying children of ``values`` with their rows.

        Yields ``(position, child_values, child_rows)``, where
        ``position`` is the attribute that was specialized, in
        deterministic order (position, then value repr). A child's rows
        are the parent's ``benefit`` rows that hold its value, in
        ascending order, and its value is the column value at its lowest
        row. Works on raw value tuples: the optimized algorithms run
        their inner loops on plain tuples and only wrap the final
        solution in patterns.

        A child is skipped when it has fewer than ``min_rows`` rows, when
        it is in any container of ``exclude``, or — if ``parents_in`` is
        given — when one of its parents other than ``values`` is not in
        ``parents_in`` (the all-parents rule of Fig. 3 line 16 and Fig. 4
        line 33). Children are filtered a position at a time, before the
        first of them is yielded, and only passing children get rows. A
        caller may add yielded children to ``exclude``'s containers and
        to ``parents_in`` between yields: no child is yielded twice, and
        the parents the rule reads sit one level above the children.

        ``known`` holds patterns whose rows were computed before; a child
        found there reuses its rows instead of intersecting, and is
        yielded as the known tuple itself when it prints the same (see
        :class:`PatternData`). Pass it only when ``benefit`` is the
        parent's full benefit.
        """
        wildcards = [q for q, value in enumerate(values) if value is ALL]
        if not wildcards:
            return
        table_rows = self._table.rows
        if known is None:
            known = _NO_DATA
        # A child's other parents: ``values`` with one constant made ALL,
        # specialized where the child is.
        generalized = [
            values[:q] + (ALL,) + values[q + 1:]
            for q, value in enumerate(values)
            if value is not ALL
        ]
        root = not generalized and len(benefit) == len(table_rows)
        ben_set: frozenset[int] | None = None
        for position in wildcards:
            by_value = self._by_value[position]
            rank_at = self._ranks[position]
            allowed: Iterable[AttrValue]
            if root:
                allowed = by_value
            elif parents_in is not None and generalized:
                allowed = parents_in.allowed(generalized, position)
                if len(benefit) < len(allowed):
                    # Fewer rows than passing values: only the values
                    # the parent's rows hold can have children.
                    allowed = allowed.intersection(
                        [table_rows[row][position] for row in benefit]
                    )
            else:
                allowed = {table_rows[row][position] for row in benefit}
            found = []
            for child_value in allowed:
                child = (
                    values[:position] + (child_value,) + values[position + 1:]
                )
                for container in exclude:
                    if child in container:
                        break
                else:
                    data = known.get(child)
                    if data is not None:
                        rows = data.rows
                    elif root:
                        rows = self._root_rows[position][child_value]
                    else:
                        if ben_set is None:
                            ben_set = frozenset(benefit)
                        rows = ben_set & by_value.get(child_value, _NO_VALUES)
                        if not rows or len(rows) < min_rows:
                            continue
                        rows = sorted(rows)
                    if len(rows) < min_rows:
                        continue
                    lowest_value = table_rows[rows[0]][position]
                    if lowest_value is not child_value:
                        child = (
                            values[:position] + (lowest_value,)
                            + values[position + 1:]
                        )
                    if data is not None and all(map(is_, child, data.values)):
                        # The very tuple its sort key was computed for.
                        child = data.values
                    found.append((rank_at[rows[0]], rows[0], child, rows))
            # (repr rank, lowest row) is unique: ties fall to row order.
            found.sort()
            for _, _, child, rows in found:
                yield position, child, rows
