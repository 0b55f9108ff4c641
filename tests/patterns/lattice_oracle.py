"""Row-by-row lattice children: the reference the indexed rule must match.

:func:`children_by_row` is the straightforward reading of Fig. 3 line 16
and Fig. 4 line 33: group the parent's rows by each wildcard attribute's
value, build every non-empty child, then look up each of its other
parents in ``parents_in``. :meth:`repro.patterns.index.PatternIndex.
children_values` answers the same question from a slot index and must
yield the same children, in the same order, with the same rows.

It has the signature of that method, so a test can install it on
:class:`~repro.patterns.index.PatternIndex` and rerun a solver on it.
"""

from __future__ import annotations

from repro.patterns.pattern import ALL


def children_by_row(
    index, values, benefit, parents_in=None, exclude=(), min_rows=0.0,
    known=None,
):
    """Yield ``(position, child_values, child_rows)`` like
    :meth:`PatternIndex.children_values`, grouping row by row.

    Rows are visited in ascending order, so each child's rows ascend and
    its value is the column value at its lowest row. ``known`` is
    accepted and ignored: every child's rows are recomputed.
    """
    table_rows = index.table.rows
    ordered = sorted(benefit)
    for position, value in enumerate(values):
        if value is not ALL:
            continue
        groups: dict = {}
        for row_id in ordered:
            groups.setdefault(table_rows[row_id][position], []).append(row_id)
        for child_value in sorted(groups, key=repr):
            rows = groups[child_value]
            if len(rows) < min_rows:
                continue
            child = values[:position] + (child_value,) + values[position + 1:]
            if any(child in container for container in exclude):
                continue
            if parents_in is not None and any(
                child[:other] + (ALL,) + child[other + 1:] not in parents_in
                for other, other_value in enumerate(child)
                if other_value is not ALL and other != position
            ):
                continue
            yield position, child, rows
