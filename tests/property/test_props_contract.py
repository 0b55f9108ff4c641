"""The contract table against the theorems: LP <= OPT <= heuristic.

For each solver, :func:`repro.core.guarantees.contract` names the size
bound and coverage target its answer keeps. An answer that keeps them is
a feasible solution of the instance at that target, so the LP bound and
the exact optimum there must both lie at or below its cost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cmc import cmc
from repro.core.cmc_epsilon import cmc_epsilon
from repro.core.cwsc import cwsc
from repro.core.exact import solve_exact
from repro.core.guarantees import contract
from repro.core.lp_bound import lp_lower_bound
from repro.core.validate import verify_result

from tests.property.strategies import set_systems

ks = st.integers(1, 3)
fractions = st.floats(min_value=0.0, max_value=1.0)
epsilons = st.floats(min_value=0.25, max_value=2.0)

_SOLVERS = {
    "cwsc": lambda system, k, s_hat, eps: cwsc(
        system, k, s_hat, on_infeasible="full_cover"
    ),
    "cmc": lambda system, k, s_hat, eps: cmc(system, k, s_hat),
    "cmc_epsilon": lambda system, k, s_hat, eps: cmc_epsilon(
        system, k, s_hat, eps=eps
    ),
    "exact": lambda system, k, s_hat, eps: solve_exact(system, k, s_hat),
}


def _tolerance(cost: float) -> float:
    return 1e-6 * max(1.0, abs(cost))


class TestContractAgainstTheorems:
    @pytest.mark.parametrize("algorithm", sorted(_SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(set_systems(max_elements=10, max_sets=12), ks, fractions, epsilons)
    def test_lp_le_opt_le_heuristic_at_the_contract(
        self, algorithm, system, k, s_hat, eps
    ):
        result = _SOLVERS[algorithm](system, k, s_hat, eps)
        assert result.algorithm == algorithm
        promised = contract(algorithm, k, s_hat, result.params)
        assert verify_result(
            system, result, k=promised.max_sets, s_hat=promised.coverage
        ) == []
        opt = solve_exact(system, promised.max_sets, promised.coverage)
        lp = lp_lower_bound(system, promised.max_sets, promised.coverage)
        assert lp <= opt.total_cost + _tolerance(opt.total_cost)
        assert opt.total_cost <= result.total_cost + _tolerance(
            result.total_cost
        )
