"""Unit tests for the weighted set system model."""

import math

import pytest

from repro.core.setsystem import SetSystem, WeightedSet
from repro.errors import ValidationError


def make_simple() -> SetSystem:
    return SetSystem.from_iterables(
        4,
        benefits=[{0, 1}, {2, 3}, {0, 1, 2, 3}, set()],
        costs=[1.0, 2.0, 5.0, 0.5],
        labels=["left", "right", "all", "empty"],
    )


class TestWeightedSet:
    def test_size_and_gain(self):
        ws = WeightedSet(0, frozenset({1, 2, 3}), 6.0)
        assert ws.size == 3
        assert ws.gain == pytest.approx(0.5)

    def test_zero_cost_gain_is_infinite(self):
        ws = WeightedSet(0, frozenset({1}), 0.0)
        assert ws.gain == math.inf

    def test_zero_cost_empty_benefit_gain_is_zero(self):
        ws = WeightedSet(0, frozenset(), 0.0)
        assert ws.gain == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            WeightedSet(0, frozenset({1}), -1.0)

    def test_nan_cost_rejected(self):
        with pytest.raises(ValidationError):
            WeightedSet(0, frozenset({1}), math.nan)

    def test_infinite_cost_allowed(self):
        ws = WeightedSet(0, frozenset({1}), math.inf)
        assert ws.cost == math.inf


class TestSetSystem:
    def test_basic_properties(self):
        system = make_simple()
        assert system.n_elements == 4
        assert system.n_sets == 4
        assert len(system) == 4
        assert system.has_full_cover

    def test_iteration_in_id_order(self):
        system = make_simple()
        assert [ws.set_id for ws in system] == [0, 1, 2, 3]

    def test_getitem(self):
        system = make_simple()
        assert system[2].label == "all"

    def test_total_cost_excludes_infinite(self):
        system = SetSystem.from_iterables(
            2, [{0}, {1}], [1.0, math.inf]
        )
        assert system.total_cost == 1.0

    def test_coverage_of_union(self):
        system = make_simple()
        assert system.coverage_of([0, 1]) == 4
        assert system.coverage_of([0, 0]) == 2
        assert system.coverage_of([]) == 0

    def test_coverage_of_with_cached_layout(self):
        from repro.core.packed import cached_layout, packed_layout

        system = make_simple()
        assert cached_layout(system) is None  # frozenset-union path
        fresh = [system.coverage_of(ids) for ids in ([0, 1], [0, 0], [])]
        packed_layout(system)
        cached = [system.coverage_of(ids) for ids in ([0, 1], [0, 0], [])]
        assert fresh == cached == [4, 2, 0]

    def test_cost_of(self):
        system = make_simple()
        assert system.cost_of([0, 1]) == pytest.approx(3.0)

    def test_cheapest_costs(self):
        system = make_simple()
        assert system.cheapest_costs(2) == [0.5, 1.0]
        assert system.cheapest_costs(10) == [0.5, 1.0, 2.0, 5.0]

    def test_cheapest_costs_negative_k_rejected(self):
        with pytest.raises(ValidationError):
            make_simple().cheapest_costs(-1)

    def test_required_coverage_rounding(self):
        system = make_simple()
        assert system.required_coverage(0.5) == 2
        assert system.required_coverage(0.51) == 3
        assert system.required_coverage(0.0) == 0
        assert system.required_coverage(1.0) == 4

    def test_required_coverage_float_fuzz(self):
        system = SetSystem.from_iterables(10, [set(range(10))], [1.0])
        # 0.3 * 10 is 3.0000000000000004 in floats; must still require 3.
        assert system.required_coverage(0.3) == 3

    def test_required_coverage_out_of_range(self):
        with pytest.raises(ValidationError):
            make_simple().required_coverage(1.5)

    def test_element_out_of_universe_rejected(self):
        with pytest.raises(ValidationError):
            SetSystem.from_iterables(2, [{0, 5}], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            SetSystem.from_iterables(2, [{0}], [1.0, 2.0])
        with pytest.raises(ValidationError):
            SetSystem.from_iterables(2, [{0}], [1.0], labels=["a", "b"])

    def test_negative_universe_rejected(self):
        with pytest.raises(ValidationError):
            SetSystem(-1, [])

    def test_from_mapping_is_order_independent(self):
        spec_a = {"x": ({0}, 1.0), "y": ({1}, 2.0)}
        spec_b = {"y": ({1}, 2.0), "x": ({0}, 1.0)}
        sys_a = SetSystem.from_mapping(2, spec_a)
        sys_b = SetSystem.from_mapping(2, spec_b)
        assert [ws.label for ws in sys_a] == [ws.label for ws in sys_b]
        assert [ws.cost for ws in sys_a] == [ws.cost for ws in sys_b]

    def test_no_full_cover_flagged(self):
        system = SetSystem.from_iterables(3, [{0}, {1}], [1.0, 1.0])
        assert not system.has_full_cover

    def test_empty_universe(self):
        system = SetSystem.from_iterables(0, [], [])
        assert system.n_elements == 0
        assert system.required_coverage(1.0) == 0


def make_sorted() -> SetSystem:
    """``make_simple``'s sets, ids in label (``repr``) order."""
    return SetSystem.from_iterables(
        4,
        benefits=[{0, 1, 2, 3}, set(), {0, 1}, {2, 3}],
        costs=[5.0, 0.5, 1.0, 2.0],
        labels=["all", "empty", "left", "right"],
    )


def make_csr(**overrides) -> SetSystem:
    """``make_sorted`` as CSR arrays, labels decoded on demand."""
    labels = ["all", "empty", "left", "right"]
    fields = {
        "n_elements": 4,
        "indptr": [0, 4, 4, 6, 8],
        "indices": [0, 1, 2, 3, 0, 1, 2, 3],
        "costs": [5.0, 0.5, 1.0, 2.0],
        "label_of": labels.__getitem__,
    }
    fields.update(overrides)
    return SetSystem.from_csr(**fields)


class TestFromCSR:
    def test_matches_per_set_system(self):
        csr, eager = make_csr(), make_sorted()
        for name in ("n_elements", "n_sets", "n_pairs", "has_full_cover",
                     "total_cost"):
            assert getattr(csr, name) == getattr(eager, name), name
        assert [csr[i] for i in range(4)] == list(eager.sets)
        assert csr[-1] == eager[-1]
        assert csr.label_of(0) == "all"
        assert csr.cost_of([0, 2]) == eager.cost_of([0, 2])
        assert csr.coverage_of([2, 3]) == eager.coverage_of([2, 3])
        assert csr.cheapest_costs(2) == eager.cheapest_costs(2)
        assert csr.sets == eager.sets

    def test_csr_accessor_agrees_for_both_kinds(self):
        import numpy as np

        for got, want in zip(make_sorted().csr(), make_csr().csr()):
            assert np.array_equal(got, want)

    def test_only_csr_systems_promise_sorted_labels(self):
        assert make_csr().labels_sorted
        assert not make_sorted().labels_sorted

    def test_arrays_are_read_only(self):
        indptr, _, costs = make_csr().csr()
        with pytest.raises(ValueError):
            costs[0] = 9.0
        with pytest.raises(ValueError):
            indptr[0] = 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"indices": [0, 1, 2, 3, 0, 1, 2, 4]}, "set 3 covers element 4"),
            ({"indices": [1, 0, 2, 3, 0, 1, 2, 3]}, "set 0 lists"),
            ({"indices": [0, 1, 2, 3, 1, 0, 2, 3]}, "set 2 lists"),
            ({"indices": [0, 1, 2, 3, 0, 1, 3, 3]}, "set 3 lists"),
            ({"costs": [5.0, -0.5, 1.0, 2.0]}, "set 1 has invalid cost"),
            ({"costs": [5.0, 0.5, math.nan, 2.0]}, "set 2 has invalid cost"),
            ({"indptr": [0, 4, 6, 8]}, "indptr"),
            ({"indptr": [0, 4, 6, 4, 8]}, "indptr"),
        ],
    )
    def test_rejects_what_the_per_set_constructor_rejects(
        self, overrides, message
    ):
        with pytest.raises(ValidationError, match=message):
            make_csr(**overrides)

    def test_strict_rejects_infinite_cost(self):
        make_csr(costs=[5.0, 0.5, math.inf, 2.0])
        with pytest.raises(ValidationError, match="label='left'"):
            make_csr(costs=[5.0, 0.5, math.inf, 2.0], strict=True)
