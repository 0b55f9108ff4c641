"""Unit tests for dominance preprocessing."""

import pytest

from repro.core.exact import solve_exact
from repro.core.lp_bound import lp_lower_bound
from repro.core.preprocess import reduced_view, remove_dominated
from repro.core.setsystem import SetSystem


class TestRemoveDominated:
    def test_subset_with_higher_cost_dropped(self):
        system = SetSystem.from_iterables(
            4,
            benefits=[{0, 1}, {0, 1, 2}, {3}],
            costs=[5.0, 3.0, 1.0],
            labels=["dominated", "dominator", "lone"],
        )
        reduced = remove_dominated(system)
        labels = [ws.label for ws in reduced.sets]
        assert "dominated" not in labels
        assert set(labels) == {"dominator", "lone"}

    def test_equal_sets_keep_one(self):
        system = SetSystem.from_iterables(
            2, [{0, 1}, {0, 1}], [2.0, 2.0], labels=["first", "second"]
        )
        reduced = remove_dominated(system)
        assert reduced.n_sets == 1

    def test_empty_sets_dropped(self):
        system = SetSystem.from_iterables(2, [set(), {0}], [0.0, 1.0])
        reduced = remove_dominated(system)
        assert reduced.n_sets == 1

    def test_cheaper_subset_survives(self):
        # A strictly smaller but cheaper set is NOT dominated.
        system = SetSystem.from_iterables(
            3, [{0}, {0, 1, 2}], [1.0, 10.0]
        )
        assert remove_dominated(system).n_sets == 2

    def test_ids_redensified(self, entities_system):
        reduced = remove_dominated(entities_system)
        assert [ws.set_id for ws in reduced.sets] == list(
            range(reduced.n_sets)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_optimal_cost_preserved(self, random_system, seed):
        system = random_system(n_elements=10, n_sets=9, seed=seed)
        reduced = remove_dominated(system)
        for k, s_hat in ((2, 0.6), (3, 1.0)):
            original = solve_exact(system, k, s_hat).total_cost
            after = solve_exact(reduced, k, s_hat).total_cost
            assert after == pytest.approx(original)

    def test_lp_bound_preserved_or_tightened(self, random_system):
        system = random_system(n_elements=10, n_sets=9, seed=3)
        reduced = remove_dominated(system)
        original = lp_lower_bound(system, 3, 0.8)
        after = lp_lower_bound(reduced, 3, 0.8)
        assert after >= original - 1e-6

    def test_entities_reduction_nontrivial(self, entities_system):
        # Table II contains dominated patterns (e.g. (A, West) covers a
        # subset of (ALL, West) at equal cost).
        reduced = remove_dominated(entities_system)
        assert reduced.n_sets < entities_system.n_sets


class TestReducedView:
    def test_ids_map_view_sets_to_originals(self, entities_system):
        view, ids = reduced_view(entities_system)
        for new_id, old_id in enumerate(ids.tolist()):
            assert view.label_of(new_id) == entities_system.label_of(old_id)
            assert view[new_id].benefit == entities_system[old_id].benefit

    def test_computed_once_per_system(self, entities_system):
        first = reduced_view(entities_system)
        assert reduced_view(entities_system)[0] is first[0]

    def test_labels_sorted_carries_over(self, entities_system):
        system = SetSystem.from_iterables(
            3, [{0}, {0, 1}, {2}], [2.0, 1.0, 1.0]
        )
        assert not remove_dominated(system).labels_sorted
        assert entities_system.labels_sorted
        assert remove_dominated(entities_system).labels_sorted

    def test_nothing_dominated_is_its_own_view(self):
        system = SetSystem.from_iterables(3, [{0}, {1, 2}], [1.0, 1.0])
        view, ids = reduced_view(system)
        assert view is system
        assert ids.tolist() == [0, 1]
