"""Closed-form statements of the paper's approximation guarantees.

:func:`contract` is the one table of what each solver promises for a
request: the chain, the pool parent and quality telemetry read it. The
checkers mirror Theorems 4 and 5 so tests and benchmarks can assert
that each run stays inside its proven envelope:

* Theorem 4 (standard CMC): at most ``5k`` sets (more precisely the sum of
  the level quotas, ``<= 5k - 2``), total cost at most
  ``(1 + b)(2 ceil(log2 k) + 1)`` times optimal, coverage at least
  ``(1 - 1/e) * s_hat * n``.
* Theorem 5 (``(1 + eps) k`` CMC): at most ``(1 + eps) k`` sets, cost
  at most ``(1 + b)(2 j + k / 2^j)`` times optimal where ``j`` is the
  number of doubling levels kept, coverage as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.budget import generalized_levels, merged_levels, standard_levels
from repro.core.cmc import COVERAGE_DISCOUNT
from repro.core.result import CoverResult
from repro.core.setsystem import SetSystem
from repro.core.validate import verify_result
from repro.errors import ValidationError


def max_sets_standard(k: int) -> int:
    """Largest solution the standard CMC can return (``<= 5k - 2``)."""
    return standard_levels(1.0, k).max_selections()


def max_sets_epsilon(k: int, eps: float) -> int:
    """Largest solution the ``(1 + eps) k`` CMC can return."""
    return merged_levels(1.0, k, eps).max_selections()


def cost_factor_standard(k: int, b: float) -> float:
    """Theorem 4 cost multiplier: ``(1 + b)(2 ceil(log2 k) + 1)``."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if b <= 0:
        raise ValidationError(f"b must be > 0, got {b}")
    return (1.0 + b) * (2 * math.ceil(math.log2(k)) + 1 if k > 1 else 1)


def cost_factor_epsilon(k: int, b: float, eps: float) -> float:
    """Theorem 5 cost multiplier: ``(1 + b)(2 j + k / 2^j)``.

    ``j`` is the number of doubling levels kept by the merged scheme, i.e.
    the largest ``j`` with ``2^(j+1) - 2 <= eps * k`` (possibly 0).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if b <= 0 or eps <= 0:
        raise ValidationError("b and eps must be > 0")
    j = merged_levels(1.0, k, eps).n_levels - 1
    return (1.0 + b) * (2.0 * j + k / (2.0**j))


def guaranteed_coverage(s_hat: float, n_elements: int) -> float:
    """Coverage floor of any feasible CMC run: ``(1 - 1/e) s_hat n``."""
    return COVERAGE_DISCOUNT * s_hat * n_elements


@dataclass(frozen=True)
class Contract:
    """What a solver promises: at most ``max_sets`` sets, and a feasible
    answer covers at least ``coverage * n`` elements."""

    max_sets: int
    coverage: float

    def admits(self, result: CoverResult) -> bool:
        """Whether a result's claimed size and coverage keep the contract."""
        return (
            result.n_sets <= self.max_sets
            and result.covered >= self.coverage * result.n_elements - 1e-9
        )


#: The CMC solvers and the level scheme each runs; ``optimized_cmc``
#: records its scheme in ``params["variant"]``.
_CMC_VARIANTS: dict[str, str | None] = {
    "cmc": "standard",
    "cmc_epsilon": "epsilon",
    "cmc_generalized": "generalized",
    "optimized_cmc": None,
}


def contract(
    algorithm: str, k: int, s_hat: float, params: dict | None = None
) -> Contract:
    """The contract ``algorithm`` keeps for a request ``(k, s_hat)``.

    The CMC family promises its level scheme's ``max_selections`` sets
    (``<= 5k``, ``<= (1 + eps) k``, or the generalized quota sum) at
    ``COVERAGE_DISCOUNT * s_hat``; ``params`` (the result's) supplies
    ``eps``, ``l`` and ``optimized_cmc``'s ``variant``. Every other
    solver (``cwsc``, ``optimized_cwsc``, ``exact``, ``lp_rounding``,
    ``universal``, ``greedy_partial``, the chain's empty
    ``resilient_solve`` partial) promises the request itself. A
    ``+prune`` result keeps the contract of the result it pruned.
    """
    name = algorithm.removesuffix("+prune")
    if name not in _CMC_VARIANTS:
        return Contract(k, s_hat)
    params = params or {}
    variant = _CMC_VARIANTS[name] or params.get("variant", "standard")
    if variant == "epsilon":
        max_sets = max_sets_epsilon(k, params.get("eps", 1.0))
    elif variant == "generalized":
        base = 1.0 + params.get("l", 1.0)
        max_sets = generalized_levels(1.0, k, base).max_selections()
    else:
        max_sets = max_sets_standard(k)
    return Contract(max_sets, COVERAGE_DISCOUNT * s_hat)


def contract_violations(
    system: SetSystem, result: CoverResult, k: int, s_hat: float
) -> list[str]:
    """:func:`~repro.core.validate.verify_result` against the contract
    ``result``'s solver keeps for the request ``(k, s_hat)``."""
    promised = contract(result.algorithm, k, s_hat, result.params)
    return verify_result(
        system, result, k=promised.max_sets, s_hat=promised.coverage
    )


def _cost_within(result: CoverResult, factor: float, opt_cost: float) -> bool:
    return (
        opt_cost == 0
        and result.total_cost == 0
        or result.total_cost <= factor * opt_cost + 1e-9
    )


def within_theorem4(
    result: CoverResult, opt_cost: float, k: int, b: float, s_hat: float
) -> bool:
    """Check a standard CMC result against every Theorem 4 bound."""
    return (
        result.feasible
        and contract("cmc", k, s_hat).admits(result)
        and _cost_within(result, cost_factor_standard(k, b), opt_cost)
    )


def within_theorem5(
    result: CoverResult,
    opt_cost: float,
    k: int,
    b: float,
    eps: float,
    s_hat: float,
) -> bool:
    """Check an ``(1 + eps) k`` CMC result against every Theorem 5 bound."""
    return (
        result.feasible
        and contract("cmc_epsilon", k, s_hat, {"eps": eps}).admits(result)
        and _cost_within(result, cost_factor_epsilon(k, b, eps), opt_cost)
    )
