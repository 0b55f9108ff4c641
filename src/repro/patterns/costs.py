"""Pattern cost (weight) functions.

The paper leaves the cost computation application-specific: "the cost of a
pattern is computed as a function of the costs of the entities in the set"
(Section I-A; the running example and the hardness proof use ``max`` over a
measure attribute, and Lemma 1 notes the reduction extends to ``sum`` and
lp-norms). A :class:`CostFunction` maps the benefit set of a pattern to a
weight via the table's measure column.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import ValidationError
from repro.patterns.table import PatternTable


class CostFunction:
    """Computes ``Cost(p)`` from the rows a pattern covers.

    Parameters
    ----------
    name:
        Registry name ("max", "sum", ...), recorded in results.
    aggregate:
        Maps the covered rows' measure values to a cost.
    needs_measure:
        Whether the table must carry a measure column.
    row_lower_bound:
        Maps the full measure column (or row count) to a lower bound on
        the cost of *any* non-empty pattern. Used to seed the optimized
        CMC budget schedule without enumerating patterns.
    reduce:
        Optional vectorized form for :meth:`bind_csr`: maps the covered
        rows' measure values in CSR order (``None`` without a measure)
        and the CSR ``indptr`` to every set's cost, or returns ``None``
        where it could not match ``aggregate`` bit for bit.
    """

    def __init__(
        self,
        name: str,
        aggregate: Callable[[list[float]], float],
        needs_measure: bool = True,
        row_lower_bound: Callable[[PatternTable], float] | None = None,
        reduce: Callable | None = None,
    ) -> None:
        self.name = name
        self._aggregate = aggregate
        self.needs_measure = needs_measure
        self._row_lower_bound = row_lower_bound
        self._reduce = reduce

    def bind(self, table: PatternTable) -> Callable[[Iterable[int]], float]:
        """Return ``ben_rows -> cost`` for one table.

        Validates the measure requirement once, up front.
        """
        if self.needs_measure and table.measure is None:
            raise ValidationError(
                f"cost function {self.name!r} needs a measure column, but "
                f"the table has none"
            )
        measure = table.measure

        def compute(ben_rows: Iterable[int]) -> float:
            values = (
                [measure[row] for row in ben_rows]
                if measure is not None
                else [1.0 for _ in ben_rows]
            )
            if not values:
                raise ValidationError(
                    f"cost function {self.name!r} applied to an empty "
                    "benefit set"
                )
            return self._aggregate(values)

        return compute

    def bind_csr(self, table: PatternTable):
        """Return ``(indptr, rows) -> float64[m]`` for one table.

        Set ``p`` of the CSR covers ``rows[indptr[p]:indptr[p + 1]]``;
        its cost equals :meth:`bind`'s on ``frozenset`` of those rows,
        bit for bit. Validates the measure requirement up front.
        """
        compute = self.bind(table)
        measure = (
            None if table.measure is None
            else np.asarray(table.measure, dtype=np.float64)
        )

        def costs(indptr, rows):
            if self._reduce is not None:
                values = None if measure is None else measure[rows]
                out = self._reduce(values, indptr)
                if out is not None:
                    return out
            # The frozenset's iteration order is the order float sums
            # and max ties have always seen.
            row_list, bounds = rows.tolist(), indptr.tolist()
            return np.array(
                [compute(frozenset(row_list[a:b]))
                 for a, b in zip(bounds, bounds[1:])],
                dtype=np.float64,
            )

        return costs

    def lower_bound(self, table: PatternTable) -> float:
        """Lower bound on any non-empty pattern's cost in this table."""
        if self._row_lower_bound is not None:
            return self._row_lower_bound(table)
        return 0.0

    def __repr__(self) -> str:
        return f"CostFunction({self.name!r})"


def _min_measure(table: PatternTable) -> float:
    if table.measure is None or not table.measure:
        return 0.0
    return min(table.measure)


def _reduce_max(values, indptr):
    # Python's max keeps the first of equal values and never lets a NaN
    # win a comparison; np.maximum propagates NaN and may pick either
    # signed zero. Without NaN or -0.0 the two agree bit for bit.
    if np.isnan(values).any() or np.signbit(values[values == 0]).any():
        return None
    return np.maximum.reduceat(values, indptr[:-1])


def _reduce_count(values, indptr):
    return np.diff(indptr).astype(np.float64)


#: ``Cost(p) = max`` measure over covered rows (the paper's example).
MAX_COST = CostFunction(
    "max", max, row_lower_bound=_min_measure, reduce=_reduce_max
)

#: ``Cost(p) = sum`` of measures over covered rows.
SUM_COST = CostFunction("sum", sum, row_lower_bound=_min_measure)

#: ``Cost(p) = mean`` measure over covered rows.
MEAN_COST = CostFunction(
    "mean", lambda values: sum(values) / len(values),
    row_lower_bound=_min_measure,
)

#: ``Cost(p) = |Ben(p)|`` — measure-free, for tables without a measure.
COUNT_COST = CostFunction(
    "count", len, needs_measure=False, row_lower_bound=lambda table: 1.0,
    reduce=_reduce_count,
)


def lp_norm_cost(p: float) -> CostFunction:
    """``Cost(p) = (sum measure^p)^(1/p)`` — the lp-norms of Lemma 1."""
    if p <= 0:
        raise ValidationError(f"lp norm order must be > 0, got {p}")

    def aggregate(values: list[float]) -> float:
        return sum(abs(value) ** p for value in values) ** (1.0 / p)

    return CostFunction(f"l{p:g}", aggregate, row_lower_bound=_min_measure)


_REGISTRY: dict[str, CostFunction] = {
    "max": MAX_COST,
    "sum": SUM_COST,
    "mean": MEAN_COST,
    "count": COUNT_COST,
    "l2": lp_norm_cost(2.0),
}


def get_cost_function(name_or_fn: "str | CostFunction") -> CostFunction:
    """Resolve a registry name (or pass a :class:`CostFunction` through)."""
    if isinstance(name_or_fn, CostFunction):
        return name_or_fn
    try:
        return _REGISTRY[name_or_fn]
    except KeyError:
        raise ValidationError(
            f"unknown cost function {name_or_fn!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None
