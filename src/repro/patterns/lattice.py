"""Pure pattern-lattice utilities (no table required).

The lattice orders patterns by specialization: ``p <= q`` when every record
matching ``p`` also matches ``q``. :mod:`repro.patterns.index` provides the
table-aware traversal the optimized algorithms use; this module provides the
syntactic operations, mainly for tests and tools.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro._typing import AttrValue
from repro.patterns.pattern import ALL, Pattern


def syntactic_children(
    pattern: Pattern, domains: Sequence[Sequence[AttrValue]]
) -> Iterator[Pattern]:
    """All immediate children given per-attribute domains.

    Unlike :meth:`PatternIndex.children_values`, this includes children with
    empty benefit — it is the raw lattice, not the data-restricted one.
    """
    for position in pattern.wildcard_positions():
        for value in domains[position]:
            yield pattern.specialize(position, value)


def lattice_depth(pattern: Pattern) -> int:
    """Number of constants: 0 for the all-wildcards root, ``j`` for leaves."""
    return pattern.n_constants


def common_generalization(left: Pattern, right: Pattern) -> Pattern:
    """The most specific pattern that both inputs specialize.

    Positions where the two disagree (or either is ``ALL``) become ``ALL``.
    """
    values = [
        lv if lv is not ALL and lv == rv else ALL
        for lv, rv in zip(left.values, right.values)
    ]
    return Pattern(values)


def ancestors(pattern: Pattern) -> Iterator[Pattern]:
    """Every proper generalization of a pattern (up to ``2^c - 1`` of them).

    Yielded in breadth-first order ending at the all-wildcards root.
    """
    seen = {pattern}
    frontier = [pattern]
    while frontier:
        next_frontier: list[Pattern] = []
        for current in frontier:
            for parent in current.parents():
                if parent not in seen:
                    seen.add(parent)
                    next_frontier.append(parent)
                    yield parent
        frontier = next_frontier
