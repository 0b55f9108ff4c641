"""Per-set construction: the reference ``SetSystem.from_iterables`` must match.

One :class:`WeightedSet` (with its ``frozenset``) per set, validated and
gathered into the CSR by the per-set constructor. This is how
``from_iterables`` built every system before it read benefits straight
into the CSR; ``tests/core/test_from_iterables.py`` requires the same
arrays, sets, labels, tie-break keys and validation errors from both.
"""

from __future__ import annotations

from repro.core.setsystem import SetSystem, WeightedSet


def from_iterables_by_set(
    n_elements, benefits, costs, labels=None, strict=False
) -> SetSystem:
    """``SetSystem.from_iterables`` one :class:`WeightedSet` at a time."""
    from repro.errors import ValidationError

    if len(benefits) != len(costs):
        raise ValidationError(
            f"got {len(benefits)} benefit sets but {len(costs)} costs"
        )
    if labels is not None and len(labels) != len(benefits):
        raise ValidationError(
            f"got {len(benefits)} benefit sets but {len(labels)} labels"
        )
    sets = [
        WeightedSet(
            set_id=i,
            benefit=frozenset(ben),
            cost=float(cost),
            label=labels[i] if labels is not None else None,
        )
        for i, (ben, cost) in enumerate(zip(benefits, costs))
    ]
    return SetSystem(n_elements, sets, strict=strict)
