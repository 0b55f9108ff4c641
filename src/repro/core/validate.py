"""Independent verification of solver outputs.

Algorithms report their own cost/coverage; :func:`verify_result` recomputes
everything from the set system and checks the claimed constraints, so tests
(and distrustful users) never have to take a result's word for it. This is
also the "easy to see that our problem is in NP" checker from the proof of
Theorem 1: given a collection of sets, verify benefit and cost.

Coverage is recomputed by :meth:`SetSystem.coverage_of` (the cached
packed layout when a solve built one, else a set union over the chosen
sets), so verifying is cheap enough that the resilient harness
re-checks every worker claim without a measurable tax.
"""

from __future__ import annotations

from repro.core.result import CoverResult
from repro.core.setsystem import SetSystem


def verify_result(
    system: SetSystem,
    result: CoverResult,
    k: int | None = None,
    s_hat: float | None = None,
) -> list[str]:
    """Return a list of violations (empty when the result checks out).

    Parameters
    ----------
    system:
        The set system the result claims to solve.
    k:
        If given, the size bound the solution must respect.
    s_hat:
        If given, the coverage fraction a *feasible* result must reach.
        What each solver promises is :func:`repro.core.guarantees.contract`
        (:func:`~repro.core.guarantees.contract_violations` checks it).
    """
    problems: list[str] = []

    if len(set(result.set_ids)) != len(result.set_ids):
        problems.append("duplicate sets in the solution")

    for set_id in result.set_ids:
        if not (0 <= set_id < system.n_sets):
            problems.append(f"set id {set_id} outside the system")
            return problems

    true_cost = system.cost_of(result.set_ids)
    if abs(true_cost - result.total_cost) > 1e-6 * max(1.0, true_cost):
        problems.append(
            f"claimed cost {result.total_cost:g} != recomputed "
            f"{true_cost:g}"
        )

    true_covered = system.coverage_of(result.set_ids)
    if true_covered != result.covered:
        problems.append(
            f"claimed coverage {result.covered} != recomputed "
            f"{true_covered}"
        )

    if result.n_elements != system.n_elements:
        problems.append(
            f"claimed universe {result.n_elements} != system "
            f"{system.n_elements}"
        )

    if k is not None and result.n_sets > k:
        problems.append(f"{result.n_sets} sets exceed the bound k={k}")

    if s_hat is not None and result.feasible:
        required = s_hat * system.n_elements - 1e-9
        if true_covered < required:
            problems.append(
                f"feasible result covers {true_covered} < required "
                f"{required:.2f}"
            )

    return problems
