"""CMC variants: the ``(1 + eps) k`` solution-size bound and the
generalized level base (Sections V-A2 and V-A3 of the paper).

Both reuse the CMC driver from :mod:`repro.core.cmc`; only the level scheme
changes:

* :func:`cmc_epsilon` merges the cheap levels so at most ``(1 + eps) k``
  sets are selected, at cost within ``O(((1 + b) / eps) log k)`` of optimal
  (Theorem 5).
* :func:`cmc_generalized` uses geometric level boundaries with base
  ``1 + l`` and selects at most ``k (1 + (1 + l)^2 / l)`` sets with cost
  ``O((1 + b)(1 + l) log_{1+l} k)`` of optimal; ``l = 1`` recovers the
  standard scheme.
"""

from __future__ import annotations

from repro.core.budget import generalized_levels, merged_levels
from repro.core.cmc import OnInfeasible, run_cmc_driver
from repro.core.marginal import TrackerBackend
from repro.core.result import CoverResult
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.resilience.deadline import Deadline


def cmc_epsilon(
    system: SetSystem,
    k: int,
    s_hat: float,
    b: float = 1.0,
    eps: float = 1.0,
    on_infeasible: OnInfeasible = "raise",
    deadline: Deadline | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Run CMC with the merged levels of Section V-A3.

    Parameters
    ----------
    eps:
        Solution-size slack: at most ``(1 + eps) k`` sets are returned.
        Smaller values give smaller solutions but a worse cost factor
        (``O(((1 + b) / eps) log k)``). Must be positive.

    See :func:`repro.core.cmc.cmc` for the remaining parameters.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    params = {"k": k, "s_hat": s_hat, "b": b, "eps": eps, "variant": "epsilon"}
    return run_cmc_driver(
        system,
        k,
        s_hat,
        b,
        scheme_factory=lambda budget, k_: merged_levels(budget, k_, eps),
        algorithm="cmc_epsilon",
        params=params,
        on_infeasible=on_infeasible,
        deadline=deadline,
        backend=backend,
    )


def cmc_generalized(
    system: SetSystem,
    k: int,
    s_hat: float,
    b: float = 1.0,
    l: float = 1.0,
    on_infeasible: OnInfeasible = "raise",
    deadline: Deadline | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Run CMC with geometric level base ``1 + l`` (Section V-A2).

    Parameters
    ----------
    l:
        Level geometry parameter; levels hold costs in
        ``(B / (1+l)^i, B / (1+l)^(i-1)]`` with quota ``ceil((1+l)^i)``.
        ``l = 1`` matches the standard scheme's boundaries.

    See :func:`repro.core.cmc.cmc` for the remaining parameters.
    """
    if l <= 0:
        raise ValidationError(f"l must be > 0, got {l}")
    params = {"k": k, "s_hat": s_hat, "b": b, "l": l, "variant": "generalized"}
    return run_cmc_driver(
        system,
        k,
        s_hat,
        b,
        scheme_factory=lambda budget, k_: generalized_levels(budget, k_, 1.0 + l),
        algorithm="cmc_generalized",
        params=params,
        on_infeasible=on_infeasible,
        deadline=deadline,
        backend=backend,
    )
