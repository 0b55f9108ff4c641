"""Unit tests for the randomized LP rounding strawman (Section III)."""

import importlib

import pytest

from repro.core.cwsc import cwsc
from repro.core.lp_bound import solve_lp_relaxation
from repro.core.lp_rounding import lp_rounding
from repro.core.setsystem import SetSystem
from repro.errors import InfeasibleError, ValidationError
from repro.resilience import Deadline


class TestRelaxation:
    def test_fractions_sum_within_k(self, random_system):
        system = random_system(seed=1)
        relaxation = solve_lp_relaxation(system, 3, 0.8)
        assert sum(relaxation.set_fractions.values()) <= 3 + 1e-6
        assert all(
            0 <= x <= 1 + 1e-9 for x in relaxation.set_fractions.values()
        )

    def test_zero_required_has_empty_fractions(self, random_system):
        relaxation = solve_lp_relaxation(random_system(seed=2), 2, 0.0)
        assert relaxation.value == 0.0
        assert relaxation.set_fractions == {}


class TestRounding:
    def test_meets_coverage(self, random_system):
        for seed in range(5):
            system = random_system(seed=seed)
            result = lp_rounding(system, 3, 0.8, trials=5, seed=seed)
            assert result.feasible
            assert result.covered >= system.required_coverage(0.8)

    def test_deterministic_given_seed(self, random_system):
        system = random_system(seed=3)
        a = lp_rounding(system, 3, 0.8, trials=5, seed=9)
        b = lp_rounding(system, 3, 0.8, trials=5, seed=9)
        assert a.set_ids == b.set_ids
        assert a.total_cost == b.total_cost

    def test_cost_at_least_lp_value(self, random_system):
        system = random_system(seed=4)
        result = lp_rounding(system, 3, 0.8, trials=8, seed=1)
        assert result.total_cost >= result.params["lp_value"] - 1e-6

    def test_can_violate_size_constraint(self):
        # n singletons and a full set: the LP with k=2 mixes fractions of
        # everything; roundings routinely include more than 2 sets.
        n = 12
        benefits = [{i} for i in range(n)] + [set(range(n))]
        costs = [1.0] * n + [50.0]
        system = SetSystem.from_iterables(n, benefits, costs)
        result = lp_rounding(system, 2, 1.0, trials=10, alpha=3.0, seed=0)
        assert result.covered == n
        # The winning rounding or its siblings blew the size bound.
        assert (
            result.n_sets > 2 or result.params["size_violations"] > 0
        )

    def test_repair_fallback(self):
        # alpha small enough that roundings select nothing: repair does
        # all the work, behaving like greedy weighted set cover.
        system = SetSystem.from_iterables(
            4, [{0, 1}, {2, 3}, {0, 1, 2, 3}], [1.0, 1.0, 10.0]
        )
        result = lp_rounding(system, 2, 1.0, trials=1, alpha=1e-9, seed=0)
        greedy = cwsc(system, 2, 1.0)
        assert result.covered == 4
        assert result.total_cost <= greedy.total_cost + 10.0

    def test_infeasible_union_raises(self):
        system = SetSystem.from_iterables(4, [{0}, {1}], [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            lp_rounding(system, 2, 1.0)

    def test_validation(self, random_system):
        with pytest.raises(ValidationError):
            lp_rounding(random_system(), 2, 0.5, trials=0)
        with pytest.raises(ValidationError):
            lp_rounding(random_system(), 2, 0.5, alpha=0.0)


class TestDeadlinePartial:
    def test_unexpired_deadline_builds_no_greedy_partial(
        self, random_system, monkeypatch
    ):
        """The greedy partial rides along only on a raised deadline, so
        a call whose deadline never expires never pays for one."""
        # ``repro.core.lp_rounding`` names the function, so fetch the
        # module itself.
        module = importlib.import_module("repro.core.lp_rounding")
        calls = []
        real = module.greedy_partial

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "greedy_partial", counting)
        result = lp_rounding(
            random_system(seed=5), 3, 0.8, trials=3,
            deadline=Deadline.after(60.0),
        )
        assert result.feasible
        assert calls == []
