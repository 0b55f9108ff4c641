"""Per-attribute inverted index over a pattern table.

Supports the two benefit-set operations the algorithms need:

* :meth:`PatternIndex.benefit` — the rows matching an arbitrary pattern,
  via intersection of per-value row sets (smallest first);
* :meth:`PatternIndex.children_values` — the non-empty children of a
  pattern with their benefit sets, by partitioning the parent's benefit
  per wildcard attribute, filtered by the lattice rule of Section V-C:
  Fig. 3 and Fig. 4 admit a child only when all of its parents are in a
  given set (``C`` or ``V``). A child's rows are exactly one value-group
  of its parent's rows, so children with empty benefit are never
  materialized.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator

from repro._typing import AttrValue
from repro.errors import ValidationError
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable


class PatternIndex:
    """Inverted index ``attribute -> value -> row ids`` for one table."""

    def __init__(self, table: PatternTable) -> None:
        self._table = table
        # Columnar copy of the table: one tuple per attribute. The child
        # partition loop is the hottest code in the optimized algorithms
        # and runs ~30% faster on single-indexed columns than on row
        # tuples.
        self._columns: list[tuple[AttrValue, ...]] = [
            tuple(row[position] for row in table.rows)
            for position in range(table.n_attributes)
        ]
        self._by_value: list[dict[AttrValue, frozenset[int]]] = []
        for position in range(table.n_attributes):
            buckets: dict[AttrValue, list[int]] = {}
            for row_id, value in enumerate(self._columns[position]):
                buckets.setdefault(value, []).append(row_id)
            self._by_value.append(
                {value: frozenset(ids) for value, ids in buckets.items()}
            )
        self._all_rows = frozenset(range(table.n_rows))

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
            self._by_value[i].get(value, frozenset())
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
        values: tuple[AttrValue, ...],
        benefit: Iterable[int],
        parents_in: Container[tuple[AttrValue, ...]] | None = None,
        exclude: tuple[Container[tuple[AttrValue, ...]], ...] = (),
        min_rows: float = 0.0,
    ) -> Iterator[tuple[int, tuple[AttrValue, ...], list[int]]]:
        """Yield the qualifying children of ``values`` with their rows.

        For each wildcard position, the parent's ``benefit`` is
        partitioned by that attribute's value; each group is exactly one
        child's benefit. Yields ``(position, child_values, child_rows)``,
        where ``position`` is the attribute that was specialized, in
        deterministic order (position, then value repr). Works on raw
        value tuples: the optimized algorithms run their inner loops on
        plain tuples and only wrap the final solution in patterns.

        A child is skipped when it has fewer than ``min_rows`` rows, when
        it is in any container of ``exclude``, or — if ``parents_in`` is
        given — when one of its parents other than ``values`` is not in
        ``parents_in`` (the all-parents rule of Fig. 3 line 16 and Fig. 4
        line 33). The checks run as each child is reached, so a caller
        that adds yielded children to those containers sees the same
        decisions as checking after each yield.
        """
        columns = self._columns
        for position, value in enumerate(values):
            if value is not ALL:
                continue
            column = columns[position]
            groups: dict[AttrValue, list[int]] = {}
            setdefault = groups.setdefault
            for row_id in benefit:
                setdefault(column[row_id], []).append(row_id)
            for child_value in sorted(groups, key=repr):
                rows = groups[child_value]
                if len(rows) < min_rows:
                    continue
                child = (
                    values[:position] + (child_value,) + values[position + 1:]
                )
                for container in exclude:
                    if child in container:
                        break
                else:
                    if parents_in is None:
                        yield position, child, rows
                        continue
                    # The parent that generalizes ``position`` is
                    # ``values`` itself, so only the others are looked up.
                    for other_pos, other_value in enumerate(child):
                        if other_value is ALL or other_pos == position:
                            continue
                        parent = (
                            child[:other_pos] + (ALL,) + child[other_pos + 1:]
                        )
                        if parent not in parents_in:
                            break
                    else:
                        yield position, child, rows
