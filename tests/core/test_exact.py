"""Unit tests for the exact solvers (branch and bound vs. brute force)."""

import math

import pytest

from repro.core.exact import brute_force, solve_exact
from repro.core.setsystem import SetSystem
from repro.errors import InfeasibleError, ValidationError


class TestAgainstBruteForce:
    def test_matches_brute_force_on_random_systems(self, random_system):
        for seed in range(12):
            system = random_system(n_elements=10, n_sets=7, seed=seed)
            for k in (1, 2, 3):
                for s_hat in (0.4, 0.7, 1.0):
                    bb = solve_exact(system, k, s_hat)
                    bf = brute_force(system, k, s_hat)
                    assert bb.total_cost == pytest.approx(bf.total_cost), (
                        f"seed={seed} k={k} s={s_hat}"
                    )

    def test_paper_optimum(self, entities_system):
        result = solve_exact(entities_system, k=2, s_hat=9 / 16)
        assert result.total_cost == pytest.approx(27.0)
        assert result.covered >= 9


class TestBranchAndBound:
    def test_prefers_cheap_combination(self):
        system = SetSystem.from_iterables(
            6,
            benefits=[{0, 1, 2}, {3, 4, 5}, set(range(6))],
            costs=[1.0, 1.0, 1.9],
        )
        result = solve_exact(system, k=2, s_hat=1.0)
        assert result.total_cost == pytest.approx(1.9)
        assert result.n_sets == 1

    def test_respects_k(self):
        system = SetSystem.from_iterables(
            4,
            benefits=[{0}, {1}, {2}, {3}, {0, 1, 2, 3}],
            costs=[0.1, 0.1, 0.1, 0.1, 100.0],
        )
        result = solve_exact(system, k=2, s_hat=1.0)
        assert result.total_cost == pytest.approx(100.0)

    def test_skips_infinite_cost_sets(self):
        system = SetSystem.from_iterables(
            2,
            benefits=[{0, 1}, {0, 1}],
            costs=[math.inf, 3.0],
        )
        result = solve_exact(system, k=1, s_hat=1.0)
        assert result.total_cost == pytest.approx(3.0)

    def test_zero_coverage(self, random_system):
        result = solve_exact(random_system(seed=0), k=2, s_hat=0.0)
        assert result.total_cost == 0.0
        assert result.n_sets == 0

    def test_infeasible_raises(self):
        system = SetSystem.from_iterables(4, [{0}, {1}], [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            solve_exact(system, k=2, s_hat=1.0)

    def test_node_limit(self, random_system):
        system = random_system(n_elements=12, n_sets=10, seed=1)
        with pytest.raises(InfeasibleError):
            solve_exact(system, k=3, s_hat=0.9, node_limit=1)

    def test_validation(self, random_system):
        with pytest.raises(ValidationError):
            solve_exact(random_system(), k=0, s_hat=0.5)
        with pytest.raises(ValidationError):
            brute_force(random_system(), k=0, s_hat=0.5)


class TestBruteForce:
    def test_infeasible_raises(self):
        system = SetSystem.from_iterables(4, [{0}, {1}], [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            brute_force(system, k=2, s_hat=1.0)

    def test_tiny_instance(self):
        system = SetSystem.from_iterables(2, [{0}, {1}, {0, 1}], [1, 1, 3])
        result = brute_force(system, k=2, s_hat=1.0)
        assert result.total_cost == pytest.approx(2.0)


def _recursive_search(system, k, s_hat):
    """The branch and bound in its former recursive form: the reference
    for the visit order (selection and node count) of ``solve_exact``."""
    required = system.required_coverage(s_hat)
    order = sorted(
        (ws for ws in system.sets if ws.benefit and math.isfinite(ws.cost)),
        key=lambda ws: (ws.cost, -ws.size, ws.set_id),
    )
    m = len(order)
    suffix_top = []
    for i in range(m + 1):
        top = sorted((ws.size for ws in order[i:]), reverse=True)[:k]
        suffix_top.append([sum(top[:r]) for r in range(k + 1)])
    best = [math.inf, None]
    nodes = 0

    def search(index, chosen, covered, cost):
        nonlocal nodes
        nodes += 1
        if len(covered) >= required:
            if cost < best[0]:
                best[:] = [cost, list(chosen)]
            return
        picks_left = k - len(chosen)
        if picks_left == 0 or index == m:
            return
        if suffix_top[index][picks_left] < required - len(covered):
            return
        ws = order[index]
        if cost + ws.cost < best[0] and not ws.benefit <= covered:
            chosen.append(ws.set_id)
            search(index + 1, chosen, covered | ws.benefit, cost + ws.cost)
            chosen.pop()
        search(index + 1, chosen, covered, cost)

    search(0, [], set(), 0.0)
    return best[1], nodes


class TestSearchOrder:
    def test_same_selection_and_node_count_as_the_recursion(
        self, random_system
    ):
        for seed in range(20):
            system = random_system(n_elements=14, n_sets=12, seed=seed)
            for k in (1, 2, 4):
                for s_hat in (0.5, 0.8, 1.0):
                    chosen, nodes = _recursive_search(system, k, s_hat)
                    try:
                        result = solve_exact(system, k, s_hat)
                    except InfeasibleError:
                        assert chosen is None
                        continue
                    assert list(result.set_ids) == chosen
                    assert result.metrics.sets_considered == nodes

    def test_deep_search_fails_at_once_with_a_greedy_partial(
        self, random_system
    ):
        # Over 1 000 candidate sets: the recursive form overflowed the
        # stack here; the search now refuses before its first node.
        system = random_system(n_elements=60, n_sets=1200, seed=3)
        with pytest.raises(InfeasibleError, match="would descend") as info:
            solve_exact(system, k=5, s_hat=0.5)
        partial = info.value.partial
        assert partial is not None and partial.n_sets <= 5
