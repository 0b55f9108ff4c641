"""The resilient fallback chain: never lose a solve to one flaky stage.

The paper guarantees a feasible answer always exists — the universal
(all-wildcards) set covers every record — yet individual solvers can still
fail in practice: exact search outgrows its time budget, the LP backend
hits numerical trouble, CWSC's ``rem / i`` threshold can be infeasible on
adversarial inputs. :func:`resilient_solve` turns those point failures
into a degradation ladder:

1. Each stage in ``chain`` runs under its slice of the overall deadline.
2. :class:`~repro.errors.TransientSolverError` (flaky LP backend, real or
   injected) is retried with capped exponential backoff and
   deterministic, seeded jitter.
3. Every candidate answer is re-verified from scratch with
   :func:`~repro.core.validate.verify_result` against the contract its
   solver promises (:func:`repro.core.guarantees.contract`) — a stage
   that *claims* feasibility but lies (e.g. under injected marginal-gain
   corruption) or overruns its size bound is rejected, not returned.
4. The terminal ``"universal"`` stage returns the cheapest full-coverage
   set, so on any system satisfying the paper's assumption the chain is
   guaranteed to produce a feasible, independently verified answer.

The returned :class:`~repro.core.result.CoverResult` carries a provenance
record in ``result.params["resilience"]``: which stages ran, failed,
timed out, or were rejected, with attempt counts and timings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from repro.core.cmc import cmc
from repro.core.cmc_epsilon import cmc_epsilon
from repro.core.cwsc import cwsc
from repro.core.exact import solve_exact
from repro.core.fallbacks import universal_result
from repro.core.guarantees import contract, contract_violations
from repro.core.lp_rounding import lp_rounding
from repro.core.marginal import KNOWN_BACKENDS, TrackerBackend
from repro.core.result import CoverResult, Metrics, make_result
from repro.core.setsystem import SetSystem
from repro.errors import (
    DeadlineExceeded,
    InfeasibleError,
    ReproError,
    TransientSolverError,
    ValidationError,
)
from repro.obs import trace as obs_trace
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.resilience.debug import hang_watchdog

__all__ = ["DEFAULT_CHAIN", "StageRecord", "resilient_solve"]

#: Stage order: strongest guarantees first, cheapest certainty last.
DEFAULT_CHAIN: tuple[str, ...] = (
    "exact",
    "lp_rounding",
    "cwsc",
    "cmc",
    "universal",
)

#: The solver behind each known stage; a ``stage_options`` entry holds
#: keyword arguments of its stage's solver.
STAGE_SOLVERS: dict[str, Callable[..., CoverResult]] = {
    "exact": solve_exact,
    "lp_rounding": lp_rounding,
    "cwsc": cwsc,
    "cmc": cmc,
    "cmc_epsilon": cmc_epsilon,
    "universal": universal_result,
}

#: Default node budget for the exact stage so it cannot wedge a chain
#: that was given no deadline.
DEFAULT_EXACT_NODE_LIMIT = 200_000


@dataclass
class StageRecord:
    """What one chain stage did — the provenance unit.

    ``status`` is one of ``"ok"`` (accepted answer), ``"rejected"``
    (answer failed independent verification), ``"infeasible"``,
    ``"timeout"``, ``"transient_exhausted"`` (retries used up),
    ``"error"`` (other library failure), or ``"skipped"`` (overall
    deadline already spent).
    """

    stage: str
    status: str
    attempts: int = 0
    elapsed_seconds: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": self.detail,
        }


def _sanitize(
    system: SetSystem, source: CoverResult, required: int
) -> CoverResult:
    """Rebuild a result's claims from its set ids alone.

    Partial results that rode along on an exception — or candidates whose
    self-reported numbers failed verification (e.g. under injected
    marginal corruption) — may carry wrong cost/coverage/feasibility.
    The selection itself is still usable; only the claims need repair.
    """
    chosen = list(dict.fromkeys(source.set_ids))
    covered = system.coverage_of(chosen)
    return make_result(
        algorithm=source.algorithm,
        chosen=chosen,
        labels=[system.label_of(set_id) for set_id in chosen],
        total_cost=system.cost_of(chosen),
        covered=covered,
        n_elements=system.n_elements,
        feasible=covered >= required,
        params=dict(source.params),
        metrics=source.metrics,
    )


def empty_result(system: SetSystem, k: int, s_hat: float) -> CoverResult:
    """The no-sets answer left when no stage produced a usable one."""
    return make_result(
        algorithm="resilient_solve",
        chosen=[],
        labels=[],
        total_cost=0.0,
        covered=0,
        n_elements=system.n_elements,
        feasible=system.required_coverage(s_hat) == 0,
        params={"k": k, "s_hat": s_hat},
        metrics=Metrics(),
    )


def _backoff_seconds(
    attempt: int, base: float, cap: float, rng: random.Random
) -> float:
    """Capped exponential backoff with seeded jitter in ``[0.5x, 1x]``."""
    return min(cap, base * (2.0**attempt)) * (0.5 + 0.5 * rng.random())


def resilient_solve(
    system: SetSystem,
    k: int,
    s_hat: float,
    chain: Sequence[str] = DEFAULT_CHAIN,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    backoff_cap: float = 1.0,
    seed: int = 0,
    strict: bool = False,
    stage_options: dict[str, dict] | None = None,
    exact_node_limit: int | None = DEFAULT_EXACT_NODE_LIMIT,
    on_failure: Literal["partial", "raise"] = "partial",
    on_stage: Callable[[str], None] | None = None,
    isolation: Literal["inline", "process"] = "inline",
    memory_limit_mb: int | None = None,
    backend: TrackerBackend | None = None,
) -> CoverResult:
    """Solve with a verified fallback chain; degrade instead of crashing.

    Parameters
    ----------
    system, k, s_hat:
        The instance, exactly as for the individual solvers.
    chain:
        Stage names to try in order; known stages are ``"exact"``,
        ``"lp_rounding"``, ``"cwsc"``, ``"cmc"``, ``"cmc_epsilon"``, and
        ``"universal"``. Keep ``"universal"`` last for the feasibility
        guarantee.
    timeout:
        Overall wall-clock budget in seconds (``None`` = unlimited).
        Each remaining non-universal stage gets an equal slice of the
        remaining time; the universal stage is O(m) and always runs.
    max_retries:
        Extra attempts per stage after a
        :class:`~repro.errors.TransientSolverError`.
    backoff_base, backoff_cap:
        Exponential backoff schedule for those retries; jitter is drawn
        from a ``random.Random(seed)`` so failures replay identically.
    seed:
        Seeds both the backoff jitter and the LP rounding stage.
    strict:
        Run :meth:`SetSystem.validate_strict` on the input first.
    stage_options:
        Optional per-stage kwargs, e.g. ``{"cmc": {"b": 2.0}}``.
    exact_node_limit:
        Node budget for the exact stage (``None`` = unlimited); the
        default stops branch-and-bound from wedging an undeadlined chain.
    on_failure:
        When no stage produces a feasible verified answer:
        ``"partial"`` (default) returns the best-effort partial with
        ``feasible=False``; ``"raise"`` raises
        :class:`~repro.errors.InfeasibleError` with that partial
        attached. With ``"universal"`` in the chain and a full-coverage
        set present (the paper's standing assumption) this path is
        unreachable.
    on_stage:
        Optional callback invoked with each stage's name just before it
        runs. The pool worker uses this to stream ``stage`` frames so
        the supervisor can blame the right solver when a worker dies.
    isolation:
        ``"inline"`` (default) runs the chain in this process under
        cooperative deadlines only. ``"process"`` delegates to
        :func:`repro.resilience.pool.run_isolated`: the chain runs in a
        supervised child with a *hard* (SIGKILL-backed) timeout and an
        optional ``RLIMIT_AS`` memory guard, and worker death is retried
        then degraded to the universal fallback. Provenance then carries
        both ``params["resilience"]`` and ``params["pool"]``.
    memory_limit_mb:
        Address-space headroom for the worker (``isolation="process"``
        only; rejected inline, where it cannot be enforced).
    backend:
        Default marginal-tracker backend for the greedy stages
        (``"set"``, ``"packed"``, ``"auto"``); an
        explicit per-stage ``stage_options`` entry wins. ``None``
        leaves each stage to the usual env/auto resolution.

    Returns
    -------
    CoverResult
        A verified answer whose ``params["resilience"]`` records the
        winning stage, a read-out of the contract it was verified
        against (``k_bound``, ``coverage_target``; see
        :func:`repro.core.guarantees.contract`), and a per-stage
        provenance list. A degraded partial is kept only while it stays
        within its solver's size bound.
    """
    if not chain:
        raise ValidationError("chain must name at least one stage")
    if max_retries < 0:
        raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
    if timeout is not None and timeout <= 0:
        raise ValidationError(f"timeout must be > 0, got {timeout}")
    if on_failure not in ("partial", "raise"):
        raise ValidationError(
            f"on_failure must be 'partial' or 'raise', got {on_failure!r}"
        )
    if isolation not in ("inline", "process"):
        raise ValidationError(
            f"isolation must be 'inline' or 'process', got {isolation!r}"
        )
    if isolation == "process":
        from repro.resilience.pool.supervisor import run_isolated

        return run_isolated(
            system,
            k,
            s_hat,
            chain=chain,
            timeout=timeout,
            memory_limit_mb=memory_limit_mb,
            seed=seed,
            stage_options=stage_options,
            max_retries=max_retries,
            strict=strict,
            exact_node_limit=exact_node_limit,
            on_failure=on_failure,
            backend=backend,
        )
    if memory_limit_mb is not None:
        raise ValidationError(
            "memory_limit_mb requires isolation='process'; an in-process "
            "rlimit would take down the caller too"
        )
    if backend is not None:
        if backend not in KNOWN_BACKENDS:
            raise ValidationError(
                f"unknown tracker backend {backend!r}; "
                f"expected one of {', '.join(KNOWN_BACKENDS)}"
            )
    unknown = [name for name in chain if name not in STAGE_SOLVERS]
    if unknown:
        raise ValidationError(
            f"unknown chain stage(s) {unknown}; "
            f"known: {sorted(STAGE_SOLVERS)}"
        )
    if strict:
        system.validate_strict()
    # A malformed REPRO_CHAOS should fail fast here, not surprise the
    # caller mid-chain at the first stage that happens to have a hook.
    faults.active()
    # Parameter validation exactly once, up front, so a chain never dies
    # on the same ValidationError five stages in a row.
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    required = system.required_coverage(s_hat)

    # Stage kwargs a stage_options entry overrides; ``backend`` seeds
    # the greedy stages only.
    defaults: dict[str, dict] = {
        "exact": {"node_limit": exact_node_limit},
        "lp_rounding": {"seed": seed},
    }
    if backend is not None:
        for name in ("cwsc", "cmc", "cmc_epsilon"):
            defaults[name] = {"backend": backend}
    stage_options = stage_options or {}

    rng = random.Random(seed)
    overall = Deadline.after(timeout) if timeout is not None else None
    records: list[StageRecord] = []
    best_partial: CoverResult | None = None

    def note_partial(candidate: CoverResult | None) -> None:
        nonlocal best_partial
        if candidate is None:
            return
        clean = _sanitize(system, candidate, required)
        if contract_violations(system, clean, k, s_hat):
            return
        if best_partial is None:
            best_partial = clean
            return
        incumbent = (
            best_partial.feasible,
            best_partial.covered,
            -best_partial.total_cost,
        )
        challenger = (clean.feasible, clean.covered, -clean.total_cost)
        if challenger > incumbent:
            best_partial = clean

    def note_stage(record: StageRecord) -> None:
        """Mirror a finished stage record into the trace event stream."""
        if obs_trace.enabled():
            obs_trace.event(
                "chain_stage",
                stage=record.stage,
                status=record.status,
                attempts=record.attempts,
                elapsed_seconds=round(record.elapsed_seconds, 6),
            )

    def finalize(result: CoverResult, record: StageRecord) -> CoverResult:
        promised = contract(result.algorithm, k, s_hat, result.params)
        result.params["resilience"] = {
            "stage": record.stage,
            "k_bound": promised.max_sets,
            "coverage_target": promised.coverage,
            "stages": [r.to_dict() for r in records],
        }
        return result

    for position, name in enumerate(chain):
        record = StageRecord(stage=name, status="skipped")
        records.append(record)
        # The universal stage is a single O(m) scan: always allowed to
        # run, even with the overall deadline spent.
        if name != "universal" and overall is not None and overall.expired():
            record.detail = "overall deadline spent before stage started"
            note_stage(record)
            continue
        if name == "universal":
            stage_deadline = None
        elif overall is None:
            stage_deadline = None
        else:
            stages_left = sum(
                1 for later in chain[position:] if later != "universal"
            )
            stage_deadline = overall.sub(overall.remaining() / max(1, stages_left))

        kwargs = {**defaults.get(name, {}), **stage_options.get(name, {})}
        if name != "universal":
            kwargs["deadline"] = stage_deadline
        if on_stage is not None:
            on_stage(name)
        stage_start = time.perf_counter()
        outcome: CoverResult | None = None
        watchdog_budget = (
            stage_deadline.remaining() if stage_deadline is not None else None
        )
        for attempt in range(max_retries + 1):
            record.attempts = attempt + 1
            try:
                with hang_watchdog(watchdog_budget, context=f"stage {name}"):
                    outcome = STAGE_SOLVERS[name](system, k, s_hat, **kwargs)
                break
            except TransientSolverError as error:
                record.status = "transient_exhausted"
                record.detail = str(error)
                if attempt >= max_retries:
                    break
                delay = _backoff_seconds(
                    attempt, backoff_base, backoff_cap, rng
                )
                if overall is not None:
                    delay = min(delay, overall.remaining())
                if delay > 0:
                    time.sleep(delay)
            except DeadlineExceeded as error:
                record.status = "timeout"
                record.detail = str(error)
                note_partial(error.partial)
                break
            except InfeasibleError as error:
                record.status = "infeasible"
                record.detail = str(error)
                note_partial(error.partial)
                break
            except ValidationError:
                # A mis-parameterized stage is a caller bug, not a
                # degradable condition.
                raise
            except ReproError as error:
                record.status = "error"
                record.detail = str(error)
                break
        record.elapsed_seconds = time.perf_counter() - stage_start

        if outcome is None:
            note_stage(record)
            continue
        problems = contract_violations(system, outcome, k, s_hat)
        if problems:
            record.status = "rejected"
            record.detail = "; ".join(problems)
            note_partial(outcome)
            note_stage(record)
            continue
        if not outcome.feasible:
            record.status = "infeasible"
            record.detail = "stage returned a best-effort infeasible result"
            note_partial(outcome)
            note_stage(record)
            continue
        record.status = "ok"
        note_stage(record)
        return finalize(outcome, record)

    # Every stage failed. Degrade to the best verified partial.
    if best_partial is None:
        best_partial = empty_result(system, k, s_hat)
    record = StageRecord(
        stage="best_partial",
        status="ok" if best_partial.feasible else "infeasible",
        detail="degraded to best verified partial across stages",
    )
    records.append(record)
    note_stage(record)
    result = finalize(best_partial, record)
    if not result.feasible and on_failure == "raise":
        raise InfeasibleError(
            "resilient_solve: no stage produced a feasible verified "
            "answer (does the system satisfy the full-coverage "
            "assumption?)",
            partial=result,
        )
    return result
