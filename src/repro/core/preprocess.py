"""Input preprocessing that preserves optimal solutions.

Real pattern collections contain many *dominated* sets — a set is dominated
when some other set covers at least the same elements at no greater cost
(e.g. the pattern ``(A, West)`` is dominated by ``(ALL, West)`` whenever
every West record has type A but the broader pattern costs the same).
Dropping dominated sets never changes the optimal cost and shrinks the
instance for the exact solver and the LP.

Greedy algorithms may select *different* (never cheaper-than-optimal)
solutions on the reduced instance, because tie-breaking sees fewer
candidates; callers who need bit-identical greedy output should not
preprocess.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.setsystem import SetSystem, WeightedSet
from repro.obs import trace as obs_trace


def remove_dominated(system: SetSystem) -> SetSystem:
    """Return a system without dominated or empty sets.

    A set ``s`` is dominated when another set ``t`` has
    ``Ben(s) <= Ben(t)`` and ``Cost(t) <= Cost(s)`` (ties keep the
    earlier id). Worst-case quadratic in the number of sets — intended
    as a preprocessing step before :func:`repro.core.exact.solve_exact`
    or :func:`repro.core.lp_bound.lp_lower_bound`, not inside greedy
    loops — but two prunings keep the common case far cheaper:

    * subset tests are frozenset ``<=`` comparisons, which bail out at
      the first element missing from the candidate superset;
    * kept sets are scanned in ascending cost order and the scan stops
      at the first survivor more expensive than the candidate — only
      sets satisfying the cost half of the dominance predicate are ever
      compared.
    """
    with (
        obs_trace.span(
            "preprocess", op="remove_dominated", n_sets=system.n_sets
        )
        if obs_trace.enabled()
        else obs_trace.NULL_SPAN
    ) as sp:
        survivors: list[WeightedSet] = []
        # Survivor benefits kept sorted by (cost, insertion order) so
        # bisect bounds the dominance scan to survivors with cost <=
        # candidate's.
        kept_costs: list[float] = []
        kept_benefits: list[frozenset] = []
        candidates = [ws for ws in system.sets if ws.benefit]
        # Bigger-first makes the common "subset of a cheaper superset"
        # check hit early; ties on size resolve by cost then id for
        # determinism.
        candidates.sort(key=lambda ws: (-ws.size, ws.cost, ws.set_id))
        for ws in candidates:
            benefit = ws.benefit
            hi = bisect_right(kept_costs, ws.cost)
            if not any(benefit <= kept for kept in kept_benefits[:hi]):
                survivors.append(ws)
                kept_costs.insert(hi, ws.cost)
                kept_benefits.insert(hi, benefit)
        survivors.sort(key=lambda ws: ws.set_id)
        if sp.enabled:
            sp.set(survivors=len(survivors))
        return SetSystem(
            system.n_elements,
            [
                WeightedSet(
                    set_id=new_id,
                    benefit=ws.benefit,
                    cost=ws.cost,
                    label=ws.label,
                )
                for new_id, ws in enumerate(survivors)
            ],
        )


def restrict_to_budget(system: SetSystem, budget: float) -> SetSystem:
    """Return a system keeping only sets with ``cost <= budget``.

    This is the Lemma 1 "threshold" view: solving with only the
    affordable sets. Set ids are re-densified; labels are preserved.
    """
    with (
        obs_trace.span(
            "preprocess", op="restrict_to_budget", budget=budget
        )
        if obs_trace.enabled()
        else obs_trace.NULL_SPAN
    ):
        survivors = [ws for ws in system.sets if ws.cost <= budget]
        return SetSystem(
            system.n_elements,
            [
                WeightedSet(
                    set_id=new_id,
                    benefit=ws.benefit,
                    cost=ws.cost,
                    label=ws.label,
                )
                for new_id, ws in enumerate(survivors)
            ],
        )
