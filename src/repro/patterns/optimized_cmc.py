"""Optimized Cheap Max Coverage for patterned sets — Fig. 4.

Differences from the unoptimized CMC (Fig. 1), per the paper:

* the candidate set starts with the all-wildcards pattern and is grown
  down the lattice instead of being fully enumerated;
* rather than working level-by-level, the round repeatedly takes the
  candidate with the globally largest marginal benefit; if its cost level
  still has quota it is selected, otherwise it is marked *visited* and its
  children become candidates (once all their parents are visited);
* the per-level attempt counter ``count[i]`` increments on every pop whose
  level is affordable (Fig. 4 line 21 pre-increments), and the round ends
  once total attempts exceed the total quota — this bounds the work of a
  round whose budget is hopeless.

The marginal-benefit argmax is a lazy heap (marginal benefits only shrink,
so a popped entry whose recorded size is still current is a true maximum —
the CELF argument), and the inner loops run on raw value tuples (see
:mod:`repro.patterns.candidates`). The all-parents-in-``V`` rule is the
same :meth:`~repro.patterns.index.PatternIndex.children_values` filter
that Fig. 3 uses with ``C``: ``V`` is a
:class:`~repro.patterns.index.LatticeSet`, whose slot index names the
children that pass before any is built. The result is built by the same
:func:`~repro.patterns.candidates.lattice_result`.

A pattern's rows, cost and sort key do not depend on the budget, so the
rounds of one call share them (``known``): a later round takes them from
an earlier one instead of intersecting rows and computing the cost
again. The failing low-budget rounds do much of the work (9 295 of the
22 283 materializations on ``lbl:6000@11`` are in the first round), and
sharing cut ``optimized_cmc`` by 15-26 % on the first eight
``table-cold`` tables of seed 1. Every materialization still counts
toward ``sets_considered``, as each round of Fig. 4 pays for it.

Documented deviation: Fig. 4 line 1 seeds the budget with "the cost of the
``k`` cheapest patterns", which cannot be known without enumerating
patterns — the very thing the optimization avoids. By default we seed with
the sum of the ``k`` smallest measure values (for measure-monotone cost
functions such as ``max`` this is the cost such patterns would have if
some pattern isolates each cheap record, which holds on high-cardinality
data like LBL); pass ``initial_budget`` to override. A smaller seed only
adds budget rounds; it never affects feasibility.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Literal

from repro._typing import Cost
from repro.core.budget import (
    LevelScheme,
    budget_schedule,
    generalized_levels,
    merged_levels,
    standard_levels,
)
from repro.core.cmc import COVERAGE_DISCOUNT
from repro.core.result import CoverResult, Metrics
from repro.errors import InfeasibleError, ValidationError
from repro.obs import trace as obs_trace
from repro.patterns.candidates import Candidate, CandidatePool, lattice_result
from repro.patterns.costs import CostFunction, get_cost_function
from repro.patterns.index import (
    LatticeSet,
    PatternData,
    PatternIndex,
    Values,
)
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

OnInfeasible = Literal["raise", "partial"]

_EPS = 1e-9


def optimized_cmc(
    table: PatternTable,
    k: int,
    s_hat: float,
    b: float = 1.0,
    cost: "str | CostFunction" = "max",
    eps: float | None = None,
    l: float | None = None,
    initial_budget: float | None = None,
    on_infeasible: OnInfeasible = "raise",
) -> CoverResult:
    """Run the lattice-pruned CMC directly on a pattern table.

    Parameters
    ----------
    table:
        The record table (non-empty).
    k:
        Size constraint of the optimal solution being approximated.
    s_hat:
        Requested coverage fraction; the run targets
        ``(1 - 1/e) * s_hat * n`` elements.
    b:
        Budget growth factor.
    cost:
        Pattern cost function (name or instance); default ``"max"``.
    eps:
        When given, uses the merged ``(1 + eps) k`` level scheme of
        Section V-A3 instead of the standard (up to ``5k``) one.
    l:
        When given, uses the generalized geometric levels of Section
        V-A2 with base ``1 + l`` (mutually exclusive with ``eps``).
    initial_budget:
        First budget guess; defaults to the sum of the ``k`` smallest
        measure values (see the module docstring).
    on_infeasible:
        ``"raise"`` or ``"partial"``. Infeasibility cannot occur on a
        non-empty table (the all-wildcards pattern covers everything and
        is affordable at the final budget), so this only matters for
        pathological cost functions.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not (0.0 <= s_hat <= 1.0):
        raise ValidationError(f"s_hat must be in [0, 1], got {s_hat}")
    if table.n_rows == 0:
        raise ValidationError("cannot cover an empty table")
    if eps is not None and eps <= 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    if l is not None and l <= 0:
        raise ValidationError(f"l must be > 0, got {l}")
    if eps is not None and l is not None:
        raise ValidationError("eps and l are mutually exclusive")
    traced = obs_trace.enabled()
    with (
        obs_trace.span("solve", algorithm="optimized_cmc", k=k, s_hat=s_hat, b=b)
        if traced
        else obs_trace.NULL_SPAN
    ) as solve_span:
        result = _optimized_cmc_body(
            table, k, s_hat, b, cost, eps, l, initial_budget,
            on_infeasible, traced,
        )
        if solve_span.enabled:
            solve_span.set(
                variant=result.params["variant"],
                budget_rounds=result.metrics.budget_rounds,
                n_sets=result.n_sets,
                total_cost=result.total_cost,
                covered=result.covered,
                feasible=result.feasible,
            )
        return result


def _optimized_cmc_body(
    table: PatternTable,
    k: int,
    s_hat: float,
    b: float,
    cost: "str | CostFunction",
    eps: float | None,
    l: float | None,
    initial_budget: float | None,
    on_infeasible: OnInfeasible,
    traced: bool,
) -> CoverResult:
    start = time.perf_counter()
    metrics = Metrics()
    cost_obj = get_cost_function(cost)
    if eps is not None:
        variant = "epsilon"
    elif l is not None:
        variant = "generalized"
    else:
        variant = "standard"
    params = {
        "k": k,
        "s_hat": s_hat,
        "b": b,
        "cost": cost_obj.name,
        "eps": eps,
        "l": l,
        "variant": variant,
    }

    with (
        obs_trace.span("preprocess", op="pattern_index")
        if traced
        else obs_trace.NULL_SPAN
    ):
        index = table.pattern_index()
        cost_fn = cost_obj.bind(table)
        all_values: Values = (ALL,) * table.n_attributes
        all_cost = cost_fn(index.all_rows)
    target = COVERAGE_DISCOUNT * s_hat * table.n_rows
    params["target_elements"] = target

    if initial_budget is None:
        initial_budget = _default_initial_budget(table, cost_obj, k)
    if eps is not None:
        scheme_factory: Callable[[Cost, int], LevelScheme] = (
            lambda budget, k_: merged_levels(budget, k_, eps)
        )
    elif l is not None:
        scheme_factory = (
            lambda budget, k_: generalized_levels(budget, k_, 1.0 + l)
        )
    else:
        scheme_factory = standard_levels

    selected: list[Candidate] = []
    # Rows, costs and sort keys shared by this call's budget rounds; it
    # holds only the children that passed the all-parents rule, not each
    # parent's full partition, and took 15-26 % off this solver on the
    # first eight table-cold tables of seed 1 (module docstring).
    known: dict[Values, PatternData] = {}
    first_round = True
    for budget in budget_schedule(initial_budget, b, all_cost):
        if first_round:
            first_round = False
        else:
            metrics.budget_rounds += 1
        with (
            obs_trace.span(
                "budget_round", round=metrics.budget_rounds, budget=budget
            )
            if traced
            else obs_trace.NULL_SPAN
        ) as round_span:
            scheme = scheme_factory(budget, k)
            selected, reached = _run_round(
                index, cost_fn, all_values, scheme, target, metrics,
                known, traced,
            )
            if round_span.enabled:
                round_span.set(selections=len(selected), reached=reached)
        if reached:
            params["final_budget"] = budget
            return lattice_result(
                "optimized_cmc", table, selected, True, params, metrics, start
            )

    partial = lattice_result(
        "optimized_cmc", table, selected, False, params, metrics, start
    )
    if on_infeasible == "partial":
        return partial
    raise InfeasibleError(
        "optimized_cmc: exhausted the budget schedule without reaching "
        f"{target:.2f} covered rows",
        partial=partial,
    )


def _default_initial_budget(
    table: PatternTable, cost_obj: CostFunction, k: int
) -> float:
    """Sum of the ``k`` smallest measure values (or ``k`` without one)."""
    if table.measure is not None and cost_obj.needs_measure:
        return sum(sorted(table.measure)[:k])
    return float(k)


def _run_round(
    index: PatternIndex,
    cost_fn: Callable,
    all_values: Values,
    scheme: LevelScheme,
    target: float,
    metrics: Metrics,
    known: dict[Values, PatternData],
    traced: bool = False,
) -> tuple[list[Candidate], bool]:
    """One budget round of Fig. 4 (lines 8-35)."""
    pool = CandidatePool(cost_fn, metrics, known=known)
    root = pool.materialize(all_values, index.all_rows)
    pool.add(root)
    heap: list[tuple[int, float, tuple, Values]] = [
        (-root.mben_size, root.cost, root.sort_key(), root.values)
    ]
    visited = LatticeSet()
    selected: list[Candidate] = []
    selected_values: set[Values] = set()
    attempts = [0] * scheme.n_levels
    max_attempts = scheme.max_selections()
    rem = target
    if rem <= _EPS:
        return selected, True

    while heap and sum(attempts) <= max_attempts:
        neg_size, _, _, values = heapq.heappop(heap)
        candidate = pool.get(values)
        if candidate is None:
            continue  # selected, visited, or evicted since being pushed
        if candidate.mben_size != -neg_size:
            heapq.heappush(
                heap,
                (
                    -candidate.mben_size,
                    candidate.cost,
                    candidate.sort_key(),
                    values,
                ),
            )
            continue
        level = scheme.level_of(candidate.cost)
        placeable = False
        if level is not None:
            attempts[level] += 1
            placeable = attempts[level] <= scheme.quotas[level]
        if placeable:
            with (
                obs_trace.span(
                    "select",
                    level=level,
                    pattern=str(Pattern(candidate.values)),
                )
                if traced
                else obs_trace.NULL_SPAN
            ) as pick_span:
                newly = pool.select(candidate)
                if pick_span.enabled:
                    pick_span.set(marginal_covered=len(newly))
            selected.append(candidate)
            selected_values.add(candidate.values)
            rem -= len(newly)
            if rem <= _EPS:
                return selected, True
        else:
            pool.remove(candidate.values)
            visited.add(candidate.values)
            # Fig. 4 line 33: only children whose parents are all in V.
            for _, child, child_ben in index.children_values(
                values,
                candidate.ben,
                parents_in=visited,
                exclude=(pool.members, visited, selected_values),
                known=pool.known,
            ):
                child_candidate = pool.materialize(child, child_ben)
                # Fig. 4 lines 28-29 evict zero-marginal candidates;
                # never admitting them is equivalent.
                if child_candidate.mben:
                    pool.add(child_candidate)
                    heapq.heappush(
                        heap,
                        (
                            -child_candidate.mben_size,
                            child_candidate.cost,
                            child_candidate.sort_key(),
                            child,
                        ),
                    )
                else:
                    visited.add(child)
    return selected, False

