"""Result objects returned by the estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a sketch-based estimation.

    Attributes
    ----------
    estimate:
        The boosted cardinality estimate: the median of the group means.
        A level-split range estimate has one group — the mean of every
        control-adjusted instance — and is clipped to ``[0, left_count]``
        (see :mod:`repro.core.range_query`).
    instance_values:
        The per-atomic-sketch-instance values of the estimator random
        variable Z (useful for diagnostics and variance estimation); for a
        level-split range estimate, after the control adjustment.
    group_means:
        The ``k2`` group averages whose median is the final estimate
        (unclipped: one value for a level-split range estimate).
    left_count / right_count:
        Current cardinalities of the join inputs (or of the single input for
        range queries), used to convert cardinality into selectivity.
    """

    estimate: float
    instance_values: np.ndarray
    group_means: np.ndarray
    left_count: int
    right_count: int = field(default=1)

    @property
    def num_instances(self) -> int:
        return int(self.instance_values.size)

    @property
    def selectivity(self) -> float:
        """Estimated selectivity: cardinality / (|R| * |S|)."""
        denominator = max(self.left_count, 1) * max(self.right_count, 1)
        return self.estimate / denominator

    def relative_error(self, truth: float) -> float:
        """|estimate - truth| / truth (defined as |estimate| when truth is 0)."""
        if truth == 0:
            return abs(self.estimate)
        return abs(self.estimate - truth) / abs(truth)

    def __float__(self) -> float:
        return float(self.estimate)
