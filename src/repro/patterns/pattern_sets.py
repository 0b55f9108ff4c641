"""Bridge from pattern tables to the core :class:`SetSystem`.

The unoptimized algorithms of the paper treat the patterns of a table as an
ordinary weighted set collection. :func:`build_set_system` enumerates every
non-empty pattern column-wise (:func:`~repro.patterns.enumerate.
pattern_csr`), computes every cost in one pass over the CSR, and wraps the
arrays in a CSR-backed :class:`~repro.core.SetSystem` whose labels are the
patterns themselves (sorted by :meth:`Pattern.sort_key` so set ids are
deterministic), decoded only for the sets that are read.
"""

from __future__ import annotations

from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.patterns.costs import CostFunction, get_cost_function
from repro.patterns.enumerate import pattern_csr
from repro.patterns.pattern import Pattern
from repro.patterns.table import PatternTable


def build_set_system(
    table: PatternTable,
    cost: "str | CostFunction" = "max",
) -> SetSystem:
    """Materialize the full patterned set system of a table.

    Parameters
    ----------
    table:
        The record table. Must be non-empty — an empty table has no
        all-wildcards cover and Definition 1's feasibility assumption
        fails.
    cost:
        Cost function name or instance (default ``"max"``, as in the
        paper's running example).

    Returns
    -------
    SetSystem
        One weighted set per non-empty pattern; ``label`` is the
        :class:`Pattern`.
    """
    if table.n_rows == 0:
        raise ValidationError("cannot build a set system from an empty table")
    costs_of = get_cost_function(cost).bind_csr(table)
    patterns = pattern_csr(table)
    return SetSystem.from_csr(
        table.n_rows,
        patterns.indptr,
        patterns.rows,
        costs_of(patterns.indptr, patterns.rows),
        label_of=patterns.pattern,
    )


def pattern_of(system: SetSystem, set_id: int) -> Pattern:
    """The pattern labeling a set of a pattern-derived system."""
    label = system.label_of(set_id)
    if not isinstance(label, Pattern):
        raise ValidationError(
            f"set {set_id} of this system is not labeled with a Pattern"
        )
    return label
