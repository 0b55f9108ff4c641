"""The pool parent judges every answer by its solver's contract.

Single-solver requests carry no chain provenance, so the parent must
look the bounds up itself (:func:`repro.core.guarantees.contract`) from
its own request's ``k`` and ``s_hat``.
"""

from __future__ import annotations

import pytest

from repro.core.guarantees import contract
from repro.core.validate import verify_result
from repro.datasets import load_dataset
from repro.patterns import build_set_system
from repro.resilience.pool import PoolConfig, SolveRequest, SolverPool

K, S_HAT = 10, 0.7


@pytest.fixture(scope="module")
def lbl_system():
    return build_set_system(load_dataset("lbl:250@2"), "max")


def _solve(system, solver: str):
    with SolverPool(PoolConfig(workers=1, request_timeout=60)) as pool:
        return pool.solve(
            SolveRequest(system=system, k=K, s_hat=S_HAT, solver=solver,
                         seed=0)
        )


class TestSingleSolverContracts:
    def test_lp_rounding_answer_over_k_is_not_returned(self, lbl_system):
        """§III rounding picks 11 sets here (seed 0); k = 10 binds."""
        outcome = _solve(lbl_system, "lp_rounding")
        result = outcome.result
        assert result is not None
        assert len(result.set_ids) <= K
        assert verify_result(lbl_system, result, k=K, s_hat=S_HAT) == []
        assert outcome.provenance["attempts"][0]["outcome"] == "rejected"

    def test_honest_cmc_answer_beyond_k_is_accepted(self, lbl_system):
        """CMC promises up to max_sets_standard(k) sets at a discounted
        coverage target; an answer inside that contract stays ``ok``."""
        outcome = _solve(lbl_system, "cmc")
        result = outcome.result
        assert outcome.status == "ok"
        assert result.algorithm == "cmc"
        assert K < len(result.set_ids)
        assert result.coverage_fraction < S_HAT
        promised = contract("cmc", K, S_HAT)
        assert verify_result(
            lbl_system, result, k=promised.max_sets, s_hat=promised.coverage
        ) == []
