"""Full enumeration of the non-empty patterns of a table, column-wise.

The *unoptimized* algorithms of the paper operate on the complete pattern
collection (Table II of the running example lists all 24 patterns of the
16-row entities table). Every non-empty pattern is a generalization of at
least one record, so enumerating the ``2^j`` generalization masks of each
record visits exactly the non-empty patterns — there are at most
``n * 2^j`` of them, far fewer than the syntactic space
``prod(|dom| + 1)``.

:func:`pattern_csr` does that enumeration with integer codes instead of
one Python tuple per (row, mask) pair: each column is coded once, each
(mask, row) pair becomes one mixed-radix ``int64`` key, one stable sort
groups the pairs into patterns, and one ``lexsort`` of the patterns'
``repr`` ranks orders them. The result is CSR — pattern
``p`` covers ``rows[indptr[p]:indptr[p + 1]]``, ascending — already in
:meth:`Pattern.sort_key` order, so :func:`~repro.patterns.pattern_sets.
build_set_system` hands it to :meth:`SetSystem.from_csr` without
creating one object per pattern. :func:`enumerate_nonempty_patterns`
is the same collection as a ``{Pattern: frozenset}`` mapping.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.errors import PatternSpaceError
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

#: Enumeration materializes ``n * 2^j`` pattern/row pairs; beyond this many
#: attributes that blows up no matter how small the table is.
MAX_ENUMERABLE_ATTRIBUTES = 20

#: Mixed-radix keys are re-ranked densely before they could pass this.
_KEY_LIMIT = 1 << 62


class PatternCSR:
    """The non-empty patterns of one table, in ``sort_key`` order.

    Attributes
    ----------
    indptr:
        ``int64[m + 1]``; pattern ``p`` covers
        ``rows[indptr[p]:indptr[p + 1]]``.
    rows:
        ``int64`` row ids, ascending within each pattern.
    keep:
        ``bool[m, j]`` — the constant (non-wildcard) positions of each
        pattern.

    A pattern's values are those of its first (lowest) row at the kept
    positions: exactly the tuple a row-by-row enumeration meets first,
    so even values that are equal but print differently (``1`` and
    ``1.0``) decode to the same labels.
    """

    __slots__ = ("indptr", "rows", "keep", "_table_rows")

    def __init__(self, indptr, rows, keep, table_rows) -> None:
        self.indptr = indptr
        self.rows = rows
        self.keep = keep
        self._table_rows = table_rows

    @property
    def n_patterns(self) -> int:
        return len(self.indptr) - 1

    def pattern(self, index: int) -> Pattern:
        """Decode pattern ``index`` (one Python object, on demand)."""
        row = self._table_rows[int(self.rows[self.indptr[index]])]
        return Pattern(
            tuple(
                value if kept else ALL
                for value, kept in zip(row, self.keep[index].tolist())
            )
        )


def pattern_csr(table: PatternTable) -> PatternCSR:
    """Enumerate every non-empty pattern of the table as CSR.

    Includes the all-wildcards pattern whenever the table has rows, so a
    set system built from the result always has a full-coverage set (the
    paper's feasibility assumption).

    Patterns come out sorted by :meth:`Pattern.sort_key`; patterns whose
    keys tie (distinct values sharing a ``repr``) keep the order a
    row-by-row, most-general-mask-first enumeration meets them in.

    Raises
    ------
    PatternSpaceError
        If the table has more than :data:`MAX_ENUMERABLE_ATTRIBUTES`
        pattern attributes.
    """
    j = table.n_attributes
    if j > MAX_ENUMERABLE_ATTRIBUTES:
        raise PatternSpaceError(
            f"enumerating patterns over {j} attributes would touch "
            f"n * 2^{j} pattern/row pairs; restructure the table or use "
            "the optimized (lattice-pruned) algorithms"
        )
    n = table.n_rows
    masks = np.array(_generalization_masks(j), dtype=bool).reshape(-1, j)
    if n == 0:
        return PatternCSR(
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty((0, j), dtype=bool), table.rows,
        )
    # Per column: 1-based ranks of the values' reprs (the sort key), and
    # codes that group equal values the way a dict of tuples does.
    repr_ranks = np.empty((n, j), dtype=np.int64)
    group_codes = np.empty((n, j), dtype=np.int64)
    radixes = []
    for i in range(j):
        column = [row[i] for row in table.rows]
        reprs = list(map(repr, column))
        rank = {text: c for c, text in enumerate(sorted(set(reprs)), 1)}
        repr_ranks[:, i] = np.fromiter(map(rank.__getitem__, reprs),
                                       dtype=np.int64, count=n)
        equal: dict = {}
        group_codes[:, i] = np.fromiter(
            (equal.setdefault(value, len(equal) + 1) for value in column),
            dtype=np.int64, count=n,
        )
        radixes.append(len(equal) + 1)
    # One key per (mask, row) pair, entry e = mask * n + row; a wildcard
    # position contributes code 0, so each key names one pattern.
    key = np.zeros(masks.shape[0] * n, dtype=np.int64)
    bound = 1
    for i in range(j):
        if bound * radixes[i] > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            bound = int(key.max()) + 1
        key *= radixes[i]
        key += np.where(masks[:, i, None], group_codes[None, :, i], 0).ravel()
        bound *= radixes[i]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_group = np.empty(key.size, dtype=bool)
    new_group[0] = True
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    first = order[new_group]
    # Sort the groups by their labels' sort keys (the first row's repr
    # ranks at the kept positions, a wildcard ranking 0 before every
    # value), ties by first row, then mask.
    first_row, mask_id = first % n, first // n
    sort_keys = [
        np.where(masks[mask_id, i], repr_ranks[first_row, i], 0)
        for i in reversed(range(j))
    ]
    by_label = np.lexsort([mask_id, first_row, *sort_keys])
    rank_of = np.empty_like(by_label)
    rank_of[by_label] = np.arange(by_label.size)
    group = rank_of[group]
    regroup = np.argsort(group, kind="stable")
    order, group, first = order[regroup], group[regroup], first[by_label]
    indptr = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=first.size), out=indptr[1:])
    return PatternCSR(indptr, order % n, masks[first // n], table.rows)


def enumerate_nonempty_patterns(
    table: PatternTable,
) -> dict[Pattern, frozenset[int]]:
    """Map every non-empty pattern of the table to its benefit set.

    A view of :func:`pattern_csr` (same patterns, ``sort_key`` order);
    raises :class:`PatternSpaceError` like it.
    """
    csr = pattern_csr(table)
    rows = csr.rows.tolist()
    bounds = csr.indptr.tolist()
    return {
        csr.pattern(p): frozenset(rows[bounds[p]:bounds[p + 1]])
        for p in range(csr.n_patterns)
    }


def _generalization_masks(j: int) -> list[tuple[bool, ...]]:
    """All ``2^j`` keep/wildcard masks, most-general first.

    The order fixes which of two patterns with tying sort keys comes
    first, matching a row-by-row enumeration that tries masks in it.
    """
    masks: list[tuple[bool, ...]] = []
    for kept in range(j + 1):
        for keep_positions in combinations(range(j), kept):
            mask = tuple(i in keep_positions for i in range(j))
            masks.append(mask)
    return masks


def count_nonempty_patterns(table: PatternTable) -> int:
    """Number of distinct non-empty patterns (Table II's row count)."""
    return pattern_csr(table).n_patterns
