"""LP relaxation of size-constrained weighted set cover.

Section III of the paper mentions the natural LP approach to weighted set
cover. We use the relaxation two ways:

* :func:`lp_lower_bound` — any feasible integral solution costs at least
  the LP optimum, so benchmarks can report ``cost / lp_bound`` even on
  instances too large for :mod:`repro.core.exact`;
* :func:`solve_lp_relaxation` — the full fractional solution, which
  :mod:`repro.core.lp_rounding` rounds into an integral one (illustrating
  the paper's point that rounding tends to violate the cardinality
  constraint).

The LP, over set variables ``x_s`` and element variables ``y_e``::

    minimize    sum_s cost(s) * x_s
    subject to  sum_e y_e                >= ceil(s_hat * n)
                y_e - sum_{s : e in s} x_s <= 0      for every element e
                sum_s x_s                 <= k
                0 <= x_s, y_e <= 1

Solved with ``scipy.optimize.linprog`` (HiGHS) on a sparse constraint
matrix built as CSC straight from the CSR of the system's
dominance-reduced view. Empty sets and sets with infinite cost are
excluded (they can never be part of a finite optimum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.preprocess import reduced_view
from repro.core.setsystem import SetSystem
from repro.errors import InfeasibleError, TransientSolverError, ValidationError
from repro.obs import trace as obs_trace
from repro.resilience import faults


@dataclass(frozen=True)
class LPRelaxation:
    """A solved LP relaxation.

    Attributes
    ----------
    value:
        The LP optimum — a lower bound on the optimal integral cost.
    set_fractions:
        ``set_id -> x_s`` for every usable set (absent ids are 0).
    """

    value: float
    set_fractions: dict[int, float]


def solve_lp_relaxation(
    system: SetSystem, k: int, s_hat: float
) -> LPRelaxation:
    """Solve the LP relaxation; see the module docstring for the model.

    The LP runs on the system's dominance-reduced view
    (:func:`repro.core.preprocess.reduced_view`, computed once per
    system), which has the same optimum; ``set_fractions`` is keyed by
    the ids of ``system`` itself.

    Raises
    ------
    InfeasibleError
        If even the fractional problem is infeasible (the union of all
        finite-cost sets cannot reach the required coverage with ``k``
        fractional picks).
    TransientSolverError
        If the backend reports a numerical (status 4) failure rather than
        structural infeasibility — retrying, possibly after perturbing
        nothing at all, can succeed. Also raised by the fault-injection
        layer when chaos testing is active.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    with (
        obs_trace.span(
            "lp_relaxation", k=k, s_hat=s_hat, n_sets=system.n_sets
        )
        if obs_trace.enabled()
        else obs_trace.NULL_SPAN
    ) as sp:
        relaxation, reduced_sets = _solve_lp_relaxation(system, k, s_hat)
        if sp.enabled:
            sp.set(
                lp_value=relaxation.value,
                fractional_sets=len(relaxation.set_fractions),
                reduced_sets=reduced_sets,
            )
        return relaxation


def _solve_lp_relaxation(
    system: SetSystem, k: int, s_hat: float
) -> tuple[LPRelaxation, int]:
    """The relaxation and the number of set columns its LP had."""
    injector = faults.active()
    if injector is not None:
        injector.lp_attempt()
    required = system.required_coverage(s_hat)
    if required == 0:
        return LPRelaxation(value=0.0, set_fractions={}), 0

    view, ids = reduced_view(system)
    indptr, indices, costs = view.csr()
    sizes = np.diff(indptr)
    usable = (sizes > 0) & np.isfinite(costs)
    if not usable.all():
        indices = indices[np.repeat(usable, sizes)]
        sizes, costs, ids = sizes[usable], costs[usable], ids[usable]
    m = len(ids)
    n = system.n_elements
    if m == 0:
        raise InfeasibleError("lp relaxation: no usable sets")

    # Variables z = [x_0..x_{m-1}, y_0..y_{n-1}]; rows: 0 is
    # -sum_e y_e <= -required, 1 + e is y_e - sum_{s ni e} x_s <= 0,
    # n + 1 is sum_s x_s <= k. Column x_s holds -1 at rows 1 + e for
    # e in s, then +1 at row n + 1; column y_e holds -1 at row 0 and
    # +1 at row 1 + e.
    col_ptr = np.zeros(m + n + 1, dtype=np.int64)
    np.cumsum(sizes + 1, out=col_ptr[1 : m + 1])
    nnz_x = int(col_ptr[m])
    col_ptr[m + 1 :] = nnz_x + 2 * np.arange(1, n + 1)
    rows = np.empty(nnz_x + 2 * n, dtype=np.int64)
    vals = np.empty(nnz_x + 2 * n)
    last = col_ptr[1 : m + 1] - 1
    member = np.ones(nnz_x, dtype=bool)
    member[last] = False
    rows[:nnz_x][member] = 1 + indices
    vals[:nnz_x][member] = -1.0
    rows[last] = n + 1
    vals[last] = 1.0
    rows[nnz_x::2] = 0
    rows[nnz_x + 1 :: 2] = 1 + np.arange(n)
    vals[nnz_x::2] = -1.0
    vals[nnz_x + 1 :: 2] = 1.0
    a_ub = sparse.csc_matrix((vals, rows, col_ptr), shape=(n + 2, m + n))
    b_ub = np.zeros(n + 2)
    b_ub[0] = -float(required)
    b_ub[n + 1] = float(k)

    outcome = linprog(
        np.concatenate((costs, np.zeros(n))),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not outcome.success:
        # HiGHS status 4 is "numerical difficulties" — a retryable
        # backend failure, unlike statuses 2/3 (infeasible/unbounded)
        # which are properties of the instance.
        if getattr(outcome, "status", None) == 4:
            raise TransientSolverError(
                f"lp relaxation: backend numerical failure "
                f"({outcome.message})"
            )
        raise InfeasibleError(
            f"lp relaxation: LP infeasible or failed ({outcome.message})"
        )
    x = outcome.x[:m]
    picked = np.flatnonzero(x > 1e-9)
    fractions = dict(zip(ids[picked].tolist(), x[picked].tolist()))
    return LPRelaxation(value=float(outcome.fun), set_fractions=fractions), m


def lp_lower_bound(system: SetSystem, k: int, s_hat: float) -> float:
    """Return the LP-relaxation optimum — a lower bound on OPT's cost."""
    return solve_lp_relaxation(system, k, s_hat).value
