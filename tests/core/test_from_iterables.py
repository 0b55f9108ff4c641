"""``SetSystem.from_iterables`` against the per-set reference build.

The CSR build sorts and dedupes each benefit with numpy and makes no
:class:`WeightedSet` until ``sets`` is read; everything a solver can
observe must equal what the one-object-per-set construction gives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy_common import canonical_keys
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.resilience.pool.protocol import RemoteLabel, RemoteSortedLabel

from tests.core.setsystem_reference import from_iterables_by_set


@st.composite
def inputs(draw):
    """Unsorted benefits with repeats, costs with zeros and infinities,
    and labels that are absent, plain, or carry a ``sort_key``."""
    n = draw(st.integers(0, 12))
    n_sets = draw(st.integers(0, 8))
    benefits = draw(st.lists(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=10 if n else 0),
        min_size=n_sets, max_size=n_sets,
    ))
    costs = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, 1.0]),
            st.floats(0.0, 1e6), st.integers(0, 50),
        ),
        min_size=n_sets, max_size=n_sets,
    ))
    kind = draw(st.sampled_from(["none", "plain", "sort_key"]))
    labels = None
    if kind == "plain":
        labels = [RemoteLabel(f"s{i}") for i in draw(st.permutations(
            range(n_sets)))]
    elif kind == "sort_key":
        labels = [
            RemoteSortedLabel(f"p{i}", (i % 3, (i, "x")))
            for i in draw(st.permutations(range(n_sets)))
        ]
    return n, benefits, costs, labels


def assert_same_system(got: SetSystem, want: SetSystem) -> None:
    for mine, theirs in zip(got.csr(), want.csr()):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)
    assert got.n_elements == want.n_elements
    assert got.labels_sorted == want.labels_sorted
    assert [got.label_of(i) for i in range(got.n_sets)] == [
        want.label_of(i) for i in range(want.n_sets)
    ]
    assert canonical_keys(got) == canonical_keys(want)
    assert got.sets == want.sets


@settings(max_examples=200, deadline=None)
@given(inputs())
def test_matches_per_set_reference(case):
    n, benefits, costs, labels = case
    got = SetSystem.from_iterables(n, benefits, costs, labels=labels)
    assert got._sets is None  # no per-set object before ``sets`` is read
    assert_same_system(
        got, from_iterables_by_set(n, benefits, costs, labels=labels)
    )


def test_accepts_sets_and_one_shot_iterables():
    benefits = [{3, 1}, iter([2, 2, 0]), (x for x in (1,)), range(2)]
    reference = [{3, 1}, [2, 2, 0], [1], range(2)]
    costs = [1.0, 2, 0.5, 3.0]
    assert_same_system(
        SetSystem.from_iterables(4, benefits, costs),
        from_iterables_by_set(4, reference, costs),
    )


@pytest.mark.parametrize(
    "n, benefits, costs, labels",
    [
        # Elements outside the universe, above and below.
        (3, [[0, 1], [2, 5, 7]], [1.0, 1.0], None),
        (3, [[0], [-1, 2]], [1.0, 1.0], None),
        (0, [[0]], [1.0], None),
        # Negative and NaN costs (checked before any element).
        (3, [[0], [9]], [1.0, -2.0], None),
        (3, [[0], [1]], [math.nan, 1.0], None),
        # Length mismatches.
        (3, [[0]], [1.0, 2.0], None),
        (3, [[0], [1]], [1.0, 2.0], ["a"]),
        # Negative universe.
        (-1, [], [], None),
    ],
)
def test_same_validation_errors(n, benefits, costs, labels):
    with pytest.raises(ValidationError) as want:
        from_iterables_by_set(n, benefits, costs, labels=labels)
    with pytest.raises(ValidationError) as got:
        SetSystem.from_iterables(n, benefits, costs, labels=labels)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "benefits",
    [
        [["a"]],
        [[0, None]],
        # Nested lists: neither flattened nor broadcast into other sets.
        [[[0], [1]]],
        [[[0, 1]]],
        [[[0, 1], [2]]],
        [[[]]],
        # Fractional numbers are not truncated.
        [[0.5]],
        [[1], [0, 1.5]],
    ],
)
def test_non_integer_elements_rejected(benefits):
    with pytest.raises(ValidationError, match="integers"):
        SetSystem.from_iterables(3, benefits, [1.0] * len(benefits))


def test_integral_floats_are_elements():
    assert_same_system(
        SetSystem.from_iterables(3, [[2.0, 0.0]], [1.0]),
        SetSystem.from_iterables(3, [[0, 2]], [1.0]),
    )


def test_strict_mode_still_applies():
    with pytest.raises(ValidationError, match="non-finite"):
        SetSystem.from_iterables(2, [[0, 1]], [math.inf], strict=True)
