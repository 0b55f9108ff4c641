"""Reference LP relaxation: the per-set COO build over the full system.

The production :func:`repro.core.lp_bound.solve_lp_relaxation` builds
its constraint matrix as CSC from the CSR of the dominance-reduced view.
This is the model it replaces, written element by element from
``system.sets`` with no reduction, so the property tests can check that
both reach the same optimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.lp_bound import LPRelaxation
from repro.errors import InfeasibleError


def reference_lp_relaxation(system, k: int, s_hat: float) -> LPRelaxation:
    """The LP of :mod:`repro.core.lp_bound` over every usable set."""
    required = system.required_coverage(s_hat)
    if required == 0:
        return LPRelaxation(value=0.0, set_fractions={})
    usable = [
        ws for ws in system.sets if ws.benefit and math.isfinite(ws.cost)
    ]
    m = len(usable)
    n = system.n_elements
    if m == 0:
        raise InfeasibleError("lp relaxation: no usable sets")

    # Variable layout: z = [x_0..x_{m-1}, y_0..y_{n-1}].
    costs = np.zeros(m + n)
    costs[:m] = [ws.cost for ws in usable]
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    # Row 0: -sum_e y_e <= -required.
    for e in range(n):
        rows.append(0)
        cols.append(m + e)
        vals.append(-1.0)
    # Rows 1..n: y_e - sum_{s ni e} x_s <= 0.
    for e in range(n):
        rows.append(1 + e)
        cols.append(m + e)
        vals.append(1.0)
    for j, ws in enumerate(usable):
        for e in ws.benefit:
            rows.append(1 + e)
            cols.append(j)
            vals.append(-1.0)
    # Row n+1: sum_s x_s <= k.
    for j in range(m):
        rows.append(n + 1)
        cols.append(j)
        vals.append(1.0)
    a_ub = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n + 2, m + n)
    ).tocsr()
    b_ub = np.zeros(n + 2)
    b_ub[0] = -float(required)
    b_ub[n + 1] = float(k)
    outcome = linprog(
        costs, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    if not outcome.success:
        raise InfeasibleError(
            f"lp relaxation: LP infeasible or failed ({outcome.message})"
        )
    fractions = {
        ws.set_id: float(outcome.x[j])
        for j, ws in enumerate(usable)
        if outcome.x[j] > 1e-9
    }
    return LPRelaxation(value=float(outcome.fun), set_fractions=fractions)
