"""Experiment harness reproducing the paper's evaluation (Section 7).

Every figure of the paper has a generator function in
:mod:`repro.experiments.figures`; the benchmarks under ``benchmarks/`` and
the command-line interface (:mod:`repro.cli`) are thin wrappers around
these functions.  :mod:`repro.experiments.config` holds the scaled-down
default parameters (and the paper-scale ones for reference), and
:mod:`repro.experiments.reporting` renders results as text tables.
"""

from repro.experiments.config import ExperimentScale, LAPTOP_SCALE, PAPER_SCALE, TINY_SCALE
from repro.experiments.harness import (
    histogram_errors,
    sketch_error_for_budgets,
)
from repro.experiments.metrics import relative_error
from repro.experiments.reporting import FigureResult, format_table

__all__ = [
    "ExperimentScale",
    "LAPTOP_SCALE",
    "PAPER_SCALE",
    "TINY_SCALE",
    "relative_error",
    "sketch_error_for_budgets",
    "histogram_errors",
    "FigureResult",
    "format_table",
]
