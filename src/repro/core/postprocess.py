"""Solution post-processing.

Greedy covers often contain *redundant* sets: later selections can make an
earlier one unnecessary (every element it contributed is now covered by
others). The paper's algorithms do not prune — their guarantees are about
the raw greedy output — but a practical deployment wants the cheaper
subsolution, so :func:`prune_redundant` is offered as a post-processing
extension (and an ablation benchmark measures how much it saves).
"""

from __future__ import annotations

from repro.core.result import CoverResult, make_result
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError


def prune_redundant(
    system: SetSystem, result: CoverResult, s_hat: float
) -> CoverResult:
    """Drop sets whose removal keeps the coverage at ``s_hat * n``.

    Candidates are examined most-expensive-first, so the costliest
    redundancies go first; each removal is permanent (a single greedy
    pass — minimal-cost pruning is itself NP-hard).

    Returns a new result (the input is untouched) with the same algorithm
    name suffixed ``"+prune"``. Raises if the input result does not reach
    the target to begin with.
    """
    required = system.required_coverage(s_hat)
    if system.coverage_of(result.set_ids) < required:
        raise ValidationError(
            "prune_redundant: the input result does not reach the "
            f"required coverage of {required} elements"
        )

    kept = list(result.set_ids)
    # Most expensive first; ties toward later selections (which are the
    # likelier redundancies under greedy construction).
    order = sorted(
        kept,
        key=lambda set_id: (system[set_id].cost, kept.index(set_id)),
        reverse=True,
    )
    for candidate in order:
        without = [set_id for set_id in kept if set_id != candidate]
        if system.coverage_of(without) >= required:
            kept = without

    return make_result(
        algorithm=f"{result.algorithm}+prune",
        chosen=kept,
        labels=[system.label_of(set_id) for set_id in kept],
        total_cost=system.cost_of(kept),
        covered=system.coverage_of(kept),
        n_elements=system.n_elements,
        feasible=True,
        params={**result.params, "pruned_from": result.n_sets},
        metrics=result.metrics,
    )
