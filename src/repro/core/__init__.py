"""Core size-constrained weighted set cover algorithms (paper Sections II-V).

Public surface:

* :class:`SetSystem` / :class:`WeightedSet` — the problem input.
* :func:`cwsc` — Concise Weighted Set Cover (Fig. 2), at most ``k`` sets.
* :func:`cmc` — Cheap Max Coverage (Fig. 1), at most ``5k`` sets.
* :func:`cmc_epsilon` / :func:`cmc_generalized` — Section V-A variants.
* :func:`solve_exact` / :func:`brute_force` — exact optimum (Section VI-D).
* :func:`lp_lower_bound` — LP-relaxation cost lower bound.
* :mod:`repro.core.guarantees` — Theorem 4/5 bound formulas.
* :func:`universal_result` / :func:`greedy_partial` — last-resort
  fallbacks used by :func:`repro.resilience.resilient_solve`.

Every solver accepts an optional ``deadline``
(:class:`repro.resilience.Deadline`) and raises
:class:`~repro.errors.DeadlineExceeded` with a best-so-far partial when
it expires.
"""

from repro.core.budget import (
    LevelScheme,
    budget_schedule,
    generalized_levels,
    merged_levels,
    standard_levels,
)
from repro.core.cmc import COVERAGE_DISCOUNT, cmc
from repro.core.cmc_epsilon import cmc_epsilon, cmc_generalized
from repro.core.cwsc import cwsc
from repro.core.exact import brute_force, solve_exact
from repro.core.fallbacks import greedy_partial, universal_result
from repro.core.lp_bound import LPRelaxation, lp_lower_bound, solve_lp_relaxation
from repro.core.lp_rounding import lp_rounding
from repro.core.marginal import (
    MarginalTracker,
    make_tracker,
    resolve_backend,
)
from repro.core.postprocess import prune_redundant
from repro.core.preprocess import remove_dominated, restrict_to_budget
from repro.core.validate import verify_result
from repro.core.result import CoverResult, Metrics, result_from_dict
from repro.core.setsystem import SetSystem, WeightedSet

__all__ = [
    "COVERAGE_DISCOUNT",
    "CoverResult",
    "LPRelaxation",
    "LevelScheme",
    "MarginalTracker",
    "Metrics",
    "SetSystem",
    "WeightedSet",
    "brute_force",
    "budget_schedule",
    "cmc",
    "cmc_epsilon",
    "cmc_generalized",
    "cwsc",
    "generalized_levels",
    "greedy_partial",
    "lp_lower_bound",
    "lp_rounding",
    "make_tracker",
    "merged_levels",
    "prune_redundant",
    "remove_dominated",
    "resolve_backend",
    "restrict_to_budget",
    "result_from_dict",
    "solve_exact",
    "solve_lp_relaxation",
    "standard_levels",
    "universal_result",
    "verify_result",
]
