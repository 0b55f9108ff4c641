"""Profiling helpers for pattern tables.

Before running the algorithms on a new data set it helps to know how big
the pattern space is, how skewed each attribute is, and what the measure
looks like — these determine whether the optimized algorithms' lattice
pruning will pay off (paper §V-C) and how many budget rounds CMC will
need. ``scwsc info`` prints this profile from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.patterns.table import PatternTable


@dataclass(frozen=True)
class AttributeProfile:
    """Distribution summary of one pattern attribute."""

    name: str
    cardinality: int
    top_value: object
    top_share: float


@dataclass(frozen=True)
class MeasureProfile:
    """Distribution summary of the measure column."""

    name: str
    minimum: float
    median: float
    maximum: float
    total: float


@dataclass(frozen=True)
class TableProfile:
    """Everything ``scwsc info`` reports about a table."""

    n_rows: int
    n_attributes: int
    pattern_space_size: int
    attributes: tuple[AttributeProfile, ...]
    measure: MeasureProfile | None

    def render(self) -> str:
        """Human-readable multi-line profile."""
        lines = [
            f"rows: {self.n_rows}",
            f"pattern attributes: {self.n_attributes}",
            f"syntactic pattern space: {self.pattern_space_size:,}",
        ]
        for attribute in self.attributes:
            lines.append(
                f"  {attribute.name}: {attribute.cardinality} values, "
                f"top {attribute.top_value!r} "
                f"({attribute.top_share:.1%} of rows)"
            )
        if self.measure is not None:
            lines.append(
                f"measure {self.measure.name}: min={self.measure.minimum:g} "
                f"median={self.measure.median:g} "
                f"max={self.measure.maximum:g} sum={self.measure.total:g}"
            )
        else:
            lines.append("measure: none (use the 'count' cost function)")
        return "\n".join(lines)


def profile_table(table: PatternTable) -> TableProfile:
    """Compute a :class:`TableProfile` for a table."""
    coded = table.codes()
    attributes = []
    for name, codes, values in zip(table.attributes, coded.codes, coded.values):
        counts = np.bincount(codes).tolist()
        if values:
            top = max(
                range(len(values)), key=lambda c: (counts[c], repr(values[c]))
            )
            top_value, top_share = values[top], counts[top] / table.n_rows
        else:
            top_value, top_share = None, 0.0
        attributes.append(
            AttributeProfile(
                name=name,
                cardinality=len(values),
                top_value=top_value,
                top_share=top_share,
            )
        )

    measure_profile = None
    if table.measure is not None and table.measure:
        ordered = sorted(table.measure)
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2
        )
        measure_profile = MeasureProfile(
            name=table.measure_name,
            minimum=ordered[0],
            median=median,
            maximum=ordered[-1],
            total=sum(ordered),
        )

    return TableProfile(
        n_rows=table.n_rows,
        n_attributes=table.n_attributes,
        pattern_space_size=table.pattern_space_size(),
        attributes=tuple(attributes),
        measure=measure_profile,
    )
