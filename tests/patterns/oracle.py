"""Row-by-row pattern enumeration: the reference the columnar path must match.

One Python tuple per (row, generalization mask) pair, grouped in a dict,
then sorted by :meth:`Pattern.sort_key` (stable, so tying keys keep the
dict's insertion order) and packed one :class:`WeightedSet` per pattern.
This is the straightforward reading of the paper's full pattern
collection; :func:`repro.patterns.pattern_csr` and
:func:`repro.patterns.build_set_system` must reproduce it exactly.
"""

from __future__ import annotations

from repro.core.setsystem import SetSystem
from repro.patterns.costs import get_cost_function
from repro.patterns.enumerate import _generalization_masks
from repro.patterns.pattern import ALL, Pattern


def enumerate_by_row(table) -> dict[Pattern, frozenset[int]]:
    """Every non-empty pattern of the table -> its benefit set."""
    masks = _generalization_masks(table.n_attributes)
    accumulator: dict[tuple, list[int]] = {}
    for row_id, row in enumerate(table.rows):
        for mask in masks:
            key = tuple(
                row[i] if keep else ALL for i, keep in enumerate(mask)
            )
            accumulator.setdefault(key, []).append(row_id)
    return {
        Pattern(values): frozenset(rows)
        for values, rows in accumulator.items()
    }


def build_by_row(table, cost="max") -> SetSystem:
    """The full pattern set system, one object per set."""
    cost_fn = get_cost_function(cost).bind(table)
    patterns = enumerate_by_row(table)
    ordered = sorted(patterns, key=Pattern.sort_key)
    return SetSystem.from_iterables(
        table.n_rows,
        [patterns[pattern] for pattern in ordered],
        [cost_fn(patterns[pattern]) for pattern in ordered],
        labels=ordered,
    )
