"""Record tables: the element collection for patterned set cover.

A :class:`PatternTable` is the paper's input ``T`` for the special case of
Section II: ``n`` records over ``j`` categorical *pattern attributes*, plus
an optional numeric *measure* attribute from which pattern costs are
computed (the paper's running example uses ``Cost`` with the ``max``
function).

The table codes each column once (:meth:`PatternTable.codes`): which
cells hold equal values, and how values order by ``repr``. Enumeration,
the lattice index and the table profile read those codes.
"""

from __future__ import annotations

import csv
import math
import weakref
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro._typing import AttrValue
from repro.errors import ValidationError

if TYPE_CHECKING:
    from repro.patterns.index import PatternIndex


class TableCodes:
    """A table's columns as small integers (see :meth:`PatternTable.codes`).

    ``codes[i][r]`` is the equality code of row ``r``'s value in column
    ``i``: equal values (``1``, ``1.0``, ``True``) share a code, numbered
    from 0 in first-seen order, and ``values[i][c]`` is the first-seen
    value of code ``c``. ``ranks[i][r]`` is the 1-based rank of that
    cell's ``repr`` among the column's distinct ``repr`` texts, so rank
    order is ``repr`` order. Both arrays are ``(j, n)`` in the narrowest
    unsigned dtype that holds ``n``.
    """

    __slots__ = ("codes", "values", "ranks")

    def __init__(self, rows: Sequence[Sequence[AttrValue]], j: int) -> None:
        n = len(rows)
        dtype = np.min_scalar_type(n)
        self.codes = np.empty((j, n), dtype=dtype)
        self.ranks = np.empty((j, n), dtype=dtype)
        values = []
        for i, column in enumerate(zip(*rows) if n else [()] * j):
            equal: dict = {}
            self.codes[i] = [equal.setdefault(v, len(equal)) for v in column]
            values.append(tuple(equal))
            reprs = list(map(repr, column))
            rank = {text: r for r, text in enumerate(sorted(set(reprs)), 1)}
            self.ranks[i] = list(map(rank.__getitem__, reprs))
        self.values: tuple[tuple[AttrValue, ...], ...] = tuple(values)


class PatternTable:
    """An immutable table of records with pattern attributes and a measure.

    Parameters
    ----------
    attributes:
        Names of the pattern attributes ``D_1 .. D_j``.
    rows:
        One tuple of attribute values per record, each of arity ``j``.
    measure:
        Optional numeric value per record (parallel to ``rows``), used by
        measure-based cost functions.
    measure_name:
        Display name of the measure attribute.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Sequence[Sequence[AttrValue]],
        measure: Sequence[float] | None = None,
        measure_name: str = "measure",
    ) -> None:
        self._attributes = tuple(attributes)
        if not self._attributes:
            raise ValidationError("a pattern table needs >= 1 attribute")
        if len(set(self._attributes)) != len(self._attributes):
            raise ValidationError(
                f"attribute names must be unique, got {self._attributes}"
            )
        self._rows = tuple(tuple(row) for row in rows)
        for row_id, row in enumerate(self._rows):
            if len(row) != len(self._attributes):
                raise ValidationError(
                    f"row {row_id} has {len(row)} values, expected "
                    f"{len(self._attributes)}"
                )
        if measure is not None:
            if len(measure) != len(self._rows):
                raise ValidationError(
                    f"got {len(measure)} measure values for "
                    f"{len(self._rows)} rows"
                )
            self._measure: tuple[float, ...] | None = tuple(
                float(value) for value in measure
            )
        else:
            self._measure = None
        self._measure_name = measure_name
        self._codes: TableCodes | None = None
        self._index: "weakref.ref[PatternIndex] | None" = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping[str, AttrValue]],
        attributes: Sequence[str],
        measure_name: str | None = None,
    ) -> "PatternTable":
        """Build from dict records, selecting pattern and measure columns."""
        rows = []
        measure = [] if measure_name is not None else None
        for record in records:
            rows.append(tuple(record[name] for name in attributes))
            if measure is not None:
                measure.append(float(record[measure_name]))
        return cls(
            attributes,
            rows,
            measure=measure,
            measure_name=measure_name or "measure",
        )

    @classmethod
    def from_csv(
        cls,
        path,
        attributes: Sequence[str],
        measure_name: str | None = None,
    ) -> "PatternTable":
        """Load records from a CSV file with a header row."""
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            return cls.from_records(reader, attributes, measure_name)

    def to_csv(self, path) -> None:
        """Write the table (pattern attributes + measure) as CSV."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            header = list(self._attributes)
            if self._measure is not None:
                header.append(self._measure_name)
            writer.writerow(header)
            for row_id, row in enumerate(self._rows):
                out = list(row)
                if self._measure is not None:
                    out.append(self._measure[row_id])
                writer.writerow(out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def n_attributes(self) -> int:
        return len(self._attributes)

    @property
    def rows(self) -> tuple[tuple[AttrValue, ...], ...]:
        return self._rows

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def measure(self) -> tuple[float, ...] | None:
        return self._measure

    @property
    def measure_name(self) -> str:
        return self._measure_name

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"PatternTable(n_rows={self.n_rows}, "
            f"attributes={list(self._attributes)}, "
            f"measure={self._measure_name if self._measure else None})"
        )

    def codes(self) -> TableCodes:
        """The table's column codes, computed on first use and kept."""
        if self._codes is None:
            self._codes = TableCodes(self._rows, self.n_attributes)
        return self._codes

    def active_domain(self, position: int) -> tuple[AttrValue, ...]:
        """Distinct values of one attribute, in ``repr`` order (ties in
        first-seen order)."""
        return tuple(sorted(self.codes().values[position], key=repr))

    def pattern_index(self) -> "PatternIndex":
        """The table's inverted index, built on first use.

        The table keeps the index weakly: every caller gets the same one
        while any caller holds it, and it is freed with the last holder.
        A table outlives its solves, and the index is about as large as
        the table (2.6 MB on 6 000 LBL rows) while it rebuilds in 6 ms.
        """
        index = self._index() if self._index is not None else None
        if index is None:
            from repro.patterns.index import PatternIndex

            index = PatternIndex(self)
            self._index = weakref.ref(index)
        return index

    def pattern_space_size(self) -> int:
        """``prod(|dom(D_i)| + 1)`` — the number of syntactic patterns."""
        return math.prod(len(values) + 1 for values in self.codes().values)

    # ------------------------------------------------------------------
    # Transformations (each returns a new table)
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence[str]) -> "PatternTable":
        """Keep only the named pattern attributes (Fig. 7's workload)."""
        missing = [name for name in attributes if name not in self._attributes]
        if missing:
            raise ValidationError(f"unknown attributes: {missing}")
        indices = [self._attributes.index(name) for name in attributes]
        return PatternTable(
            attributes,
            [tuple(row[i] for i in indices) for row in self._rows],
            measure=self._measure,
            measure_name=self._measure_name,
        )

    def sample(self, n: int, seed: int = 0) -> "PatternTable":
        """Uniform random sample of ``n`` rows without replacement."""
        if not (0 <= n <= self.n_rows):
            raise ValidationError(
                f"cannot sample {n} of {self.n_rows} rows"
            )
        rng = np.random.default_rng(seed)
        chosen = sorted(rng.choice(self.n_rows, size=n, replace=False))
        return self.take(chosen)

    def take(self, row_ids: Sequence[int]) -> "PatternTable":
        """Sub-table with exactly the given rows (order preserved)."""
        rows = [self._rows[i] for i in row_ids]
        measure = (
            [self._measure[i] for i in row_ids]
            if self._measure is not None
            else None
        )
        return PatternTable(
            self._attributes, rows, measure=measure,
            measure_name=self._measure_name,
        )

    def with_measure(
        self, measure: Sequence[float], measure_name: str | None = None
    ) -> "PatternTable":
        """Same rows with a replaced measure column (Section VI-B)."""
        return PatternTable(
            self._attributes,
            self._rows,
            measure=measure,
            measure_name=measure_name or self._measure_name,
        )

    def extend(self, other: "PatternTable") -> "PatternTable":
        """Concatenate two tables over the same schema (incremental use)."""
        if other.attributes != self._attributes:
            raise ValidationError(
                f"schema mismatch: {other.attributes} vs {self._attributes}"
            )
        if (self._measure is None) != (other.measure is None):
            raise ValidationError(
                "cannot concatenate a table with a measure and one without"
            )
        measure = (
            list(self._measure) + list(other.measure)
            if self._measure is not None and other.measure is not None
            else None
        )
        return PatternTable(
            self._attributes,
            list(self._rows) + list(other.rows),
            measure=measure,
            measure_name=self._measure_name,
        )
