"""The LP relaxation on the dominance-reduced view equals the full LP.

:func:`repro.core.lp_bound.solve_lp_relaxation` solves its LP on the
system's dominance-reduced view and maps the fractions back to the
original ids. The reference (:mod:`tests.core.lp_reference`) builds the
LP from every usable set. Over random systems with empty sets,
infinite-cost sets, duplicate sets and equal-cost nested sets, both
reach the same optimum, every fraction names a usable set of the full
system, and the rounding built on the fractions verifies against the
full system.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import preprocess
from repro.core.lp_bound import solve_lp_relaxation
from repro.core.lp_rounding import lp_rounding
from repro.core.setsystem import SetSystem
from repro.core.validate import verify_result
from repro.errors import InfeasibleError

from tests.core.lp_reference import reference_lp_relaxation

#: Few distinct costs, so equal-cost dominance ties are common.
costs = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, math.inf])


@st.composite
def lp_systems(draw):
    n = draw(st.integers(1, 10))
    elements = st.integers(0, n - 1)
    benefits = draw(
        st.lists(st.sets(elements, min_size=1, max_size=n), max_size=8)
    )
    pairs = [(set(ben), draw(costs)) for ben in benefits]
    for ben, cost in list(pairs):
        extra = draw(st.sampled_from(["none", "duplicate", "nested"]))
        if extra == "duplicate":
            pairs.append((set(ben), draw(costs)))
        elif extra == "nested" and len(ben) > 1:
            sub = draw(st.sets(st.sampled_from(sorted(ben)), min_size=1))
            pairs.append((sub, cost))
    pairs += [(set(), draw(costs)) for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(pairs))))
    return SetSystem.from_iterables(
        n,
        [pairs[i][0] for i in order],
        [pairs[i][1] for i in order],
        labels=[f"s{i}" for i in order],
    )


def _outcome(solve, system, k, s_hat):
    try:
        return solve(system, k, s_hat)
    except InfeasibleError:
        return None


@settings(max_examples=150, deadline=None)
@given(lp_systems(), st.integers(1, 4), st.floats(0.0, 1.0))
def test_reduced_lp_matches_full_lp(system, k, s_hat):
    got = _outcome(solve_lp_relaxation, system, k, s_hat)
    want = _outcome(reference_lp_relaxation, system, k, s_hat)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9)
    indptr, _, set_costs = system.csr()
    for set_id in got.set_fractions:
        assert 0 <= set_id < system.n_sets
        assert indptr[set_id + 1] > indptr[set_id]
        assert math.isfinite(set_costs[set_id])

    result = _outcome(lp_rounding, system, k, s_hat)
    if result is not None:
        assert verify_result(system, result, s_hat=s_hat) == []


def test_pair_cap_leaves_adversarial_system_whole():
    """Copies of one set make every copy a candidate dominator of every
    other: quadratic pairs, above the cap, so the LP runs on the whole
    system and still answers."""
    n, copies = 8, 1500
    system = SetSystem.from_iterables(
        n, [range(n)] * copies, [1.0 + i % 7 for i in range(copies)]
    )
    assert copies**2 > preprocess.PAIRS_PER_ENTRY * (
        system.n_pairs + system.n_sets
    )
    view, ids = preprocess.reduced_view(system)
    assert view is system
    assert ids.tolist() == list(range(copies))
    relaxation = solve_lp_relaxation(system, 1, 1.0)
    assert relaxation.value == pytest.approx(1.0)
    cheapest = {set_id for set_id in range(copies) if set_id % 7 == 0}
    assert set(relaxation.set_fractions) <= cheapest
