"""Experiment harness plumbing: reports, scales, the registry.

Every paper artifact (table or figure) has one module in this package
exposing ``run(scale) -> ExperimentReport``. Reports carry both the
rendered text (what the CLI prints) and the structured data (what the
tests and EXPERIMENTS.md assertions consume).

Scales keep the harness honest *and* testable: ``full`` is the
reproduction configuration (pure-Python-sized, see DESIGN.md), ``small``
is a minutes-not-hours smoke configuration used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

from repro.errors import ValidationError

Scale = Literal["small", "full"]


@dataclass
class ExperimentReport:
    """Outcome of one experiment run."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


_REGISTRY: dict[str, Callable[[Scale], ExperimentReport]] = {}
_DESCRIPTIONS: dict[str, str] = {}


def experiment(experiment_id: str, description: str):
    """Register an experiment ``run`` function under an id."""

    def decorate(fn: Callable[[Scale], ExperimentReport]):
        if experiment_id in _REGISTRY:
            raise ValidationError(
                f"experiment id {experiment_id!r} registered twice"
            )
        _REGISTRY[experiment_id] = fn
        _DESCRIPTIONS[experiment_id] = description
        return fn

    return decorate


def available_experiments() -> dict[str, str]:
    """``id -> description`` of every registered experiment."""
    _load_all()
    return dict(sorted(_DESCRIPTIONS.items()))


def run_experiment(experiment_id: str, scale: Scale = "full") -> ExperimentReport:
    """Run one experiment by id."""
    _load_all()
    if scale not in ("small", "full"):
        raise ValidationError(f"scale must be 'small' or 'full', got {scale}")
    try:
        fn = _REGISTRY[experiment_id]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None
    return fn(scale)


def _load_all() -> None:
    """Import every experiment module so decorators register them."""
    from repro.experiments import (  # noqa: F401
        crossdata,
        ext_incremental,
        ext_seeds,
        fig5_datasize,
        fig6_patterns_considered,
        fig7_attributes,
        fig8_k,
        fig9_coverage,
        running_example,
        sec3_adversarial,
        sec6b_robustness,
        sec6c_max_coverage,
        sec6d_optimal,
        table4_quality,
        table5_runtime,
        table6_wsc_size,
    )
