"""Experiment harness: one module per paper table/figure (see DESIGN.md).

Run from the command line::

    python -m repro list
    python -m repro run fig5 --scale full

or programmatically::

    from repro.experiments import run_experiment
    report = run_experiment("table4", scale="small")
    print(report.text)
"""

from repro.experiments.base import (
    ExperimentReport,
    available_experiments,
    run_experiment,
)
from repro.experiments.reporting import format_series_table, format_table

__all__ = [
    "ExperimentReport",
    "available_experiments",
    "format_series_table",
    "format_table",
    "run_experiment",
]
