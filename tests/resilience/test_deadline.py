"""Deadline semantics and cooperative cancellation in every core solver."""

from __future__ import annotations

import math

import pytest

from repro.core.cmc import cmc
from repro.core.cmc_epsilon import cmc_epsilon, cmc_generalized
from repro.core.cwsc import cwsc
from repro.core.exact import brute_force, solve_exact
from repro.core.lp_rounding import lp_rounding
from repro.core.result import CoverResult
from repro.errors import DeadlineExceeded, ValidationError
from repro.resilience import Deadline


class TestDeadlineBasics:
    def test_never_does_not_expire(self):
        deadline = Deadline.never()
        assert not deadline.expired()
        assert deadline.remaining() == math.inf
        assert not deadline.poll()

    def test_after_eventually_expires(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_positive_budget_not_immediately_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert deadline.remaining() > 59.0

    def test_poll_is_strided_but_converges(self):
        deadline = Deadline(0.0, stride=8)
        # Within at most `stride` polls the expiry must be observed.
        assert any(deadline.poll() for _ in range(8))

    def test_sub_is_capped_by_parent(self):
        parent = Deadline.after(0.05)
        child = parent.sub(1000.0)
        assert child.remaining() <= 0.05 + 1e-6

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValidationError):
            Deadline(-1.0)
        with pytest.raises(ValidationError):
            Deadline(float("nan"))
        with pytest.raises(ValidationError):
            Deadline(1.0, stride=0)


def _expired() -> Deadline:
    return Deadline(0.0, stride=1)


class TestSolversHonorDeadlines:
    """Every solver raises DeadlineExceeded with a populated partial."""

    def _check(self, excinfo, algorithm: str | None = None):
        partial = excinfo.value.partial
        assert isinstance(partial, CoverResult)
        if algorithm is not None:
            assert partial.algorithm == algorithm

    def test_cwsc(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            cwsc(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo, "cwsc")

    def test_cmc(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            cmc(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo, "cmc")

    def test_cmc_epsilon(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            cmc_epsilon(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo, "cmc_epsilon")

    def test_cmc_generalized(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            cmc_generalized(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo, "cmc_generalized")

    def test_solve_exact(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            solve_exact(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo)

    def test_brute_force(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            brute_force(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo)

    def test_lp_rounding(self, random_system):
        system = random_system(n_elements=30, n_sets=20)
        with pytest.raises(DeadlineExceeded) as excinfo:
            lp_rounding(system, k=5, s_hat=1.0, deadline=_expired())
        self._check(excinfo)

    def test_generous_deadline_changes_nothing(self, random_system):
        system = random_system(n_elements=20, n_sets=12)
        plain = cwsc(system, k=4, s_hat=0.8)
        timed = cwsc(system, k=4, s_hat=0.8, deadline=Deadline.after(60.0))
        assert plain.set_ids == timed.set_ids
        assert plain.total_cost == timed.total_cost

    def test_midway_deadline_partial_carries_progress(self, random_system):
        system = random_system(n_elements=40, n_sets=30, seed=5)
        # Expire after exactly one outer-loop check: stride 1 and a
        # budget that the first iteration consumes.
        deadline = Deadline(0.0, stride=1)
        with pytest.raises(DeadlineExceeded) as excinfo:
            cwsc(system, k=6, s_hat=1.0, deadline=deadline)
        partial = excinfo.value.partial
        assert not partial.feasible
        assert partial.n_elements == system.n_elements
