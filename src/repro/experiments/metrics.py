"""Error metrics used by the evaluation."""

from __future__ import annotations

import numpy as np


def relative_error(estimate: float, truth: float) -> float:
    """``|estimate - truth| / truth`` (|estimate| when the truth is zero).

    This is the metric plotted on every figure of Section 7.
    """
    if truth == 0:
        return abs(float(estimate))
    return abs(float(estimate) - float(truth)) / abs(float(truth))


def mean_relative_error(estimates, truth: float) -> float:
    """Average relative error over independent runs (Section 7.1 reports these)."""
    return float(np.mean([relative_error(est, truth) for est in estimates]))
