"""Accuracy boosting via averaging and median selection (Section 2.3).

Given ``k1 * k2`` i.i.d. instances of an unbiased estimator Z, the boosted
estimate is the median of ``k2`` group means of ``k1`` instances each
(Figure 1 of the paper).  Lemma 1 gives the sizing rule:

    using 16 * Var[Z] / (eps^2 * E[Z]^2) * lg(1/phi) instances, the boosted
    estimate is within relative error ``eps`` of E[Z] with probability at
    least ``1 - phi``.

which is achieved with ``k1 = 8 * Var[Z] / (eps^2 * E[Z]^2)`` and
``k2 = 2 * lg(1/phi)``.

Where an estimate comes with a *control* — the same estimator evaluated on
a query whose answer is known exactly — :func:`control_adjusted` first
regresses the control's per-instance error out of every instance.  The
level-split range family does this (its control is the whole domain, whose
answer is the net box count) and then averages all adjusted instances in
one group: their tails are light enough that the median of group means
only costs accuracy there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SketchConfigError


@dataclass(frozen=True)
class BoostingPlan:
    """A concrete (k1, k2) boosting configuration."""

    group_size: int       # k1: instances averaged per group
    num_groups: int       # k2: groups whose means are median-selected
    epsilon: float | None = None
    phi: float | None = None

    @property
    def total_instances(self) -> int:
        return self.group_size * self.num_groups

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.num_groups < 1:
            raise SketchConfigError("boosting plan needs k1 >= 1 and k2 >= 1")


def plan_boosting(epsilon: float, phi: float, variance_bound: float,
                  expectation_lower_bound: float, *,
                  max_instances: int | None = None) -> BoostingPlan:
    """Size a sketch for a target relative error and confidence (Lemma 1).

    Parameters
    ----------
    epsilon:
        Target relative error.
    phi:
        Target failure probability (confidence is ``1 - phi``).
    variance_bound:
        An upper bound on Var[Z] — e.g. ``SJ(R) * SJ(S) / 2`` for the
        interval and rectangle joins (Equation 8 / Lemma 6).
    expectation_lower_bound:
        A lower ("sanity") bound on E[Z]; the paper discusses obtaining it
        from historic data or coarse auxiliary estimates.
    max_instances:
        Optional cap on the total number of instances (the plan is clipped,
        sacrificing the guarantee, which mirrors fixed-space experiments).
    """
    if not 0 < epsilon:
        raise SketchConfigError(f"epsilon must be positive, got {epsilon}")
    if not 0 < phi < 1:
        raise SketchConfigError(f"phi must be in (0, 1), got {phi}")
    if variance_bound < 0:
        raise SketchConfigError("variance bound must be non-negative")
    if expectation_lower_bound <= 0:
        raise SketchConfigError("the expectation lower bound must be positive")

    k1 = max(1, math.ceil(8.0 * variance_bound / (epsilon ** 2 * expectation_lower_bound ** 2)))
    k2 = max(1, math.ceil(2.0 * math.log2(1.0 / phi)))
    if max_instances is not None and k1 * k2 > max_instances:
        k2 = min(k2, max_instances)
        k1 = max(1, max_instances // k2)
    return BoostingPlan(group_size=k1, num_groups=k2, epsilon=epsilon, phi=phi)


def split_instances(total: int) -> BoostingPlan:
    """A reasonable (k1, k2) split for a given total instance budget.

    Used by fixed-space experiments where the number of instances is imposed
    by a word budget rather than by an (epsilon, phi) target.  The number of
    groups is a small odd number so the median is well defined and most of
    the budget goes into averaging.
    """
    if total < 1:
        raise SketchConfigError("at least one instance is required")
    if total >= 45:
        num_groups = 9
    elif total >= 15:
        num_groups = 5
    elif total >= 3:
        num_groups = 3
    else:
        num_groups = 1
    group_size = total // num_groups
    return BoostingPlan(group_size=group_size, num_groups=num_groups)


def _median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)``, bit for bit, without ``numpy.ma``.

    ``np.median`` imports ``numpy.ma`` on its first call (10-30 ms, on the
    first estimate a process answers).  Same selection: partition at the
    middle index (both middles for an even count, averaged) and at the
    last one, where NaNs sort — a NaN there is the slice's result.
    """
    count = values.shape[-1]
    low, high = (count - 1) // 2, count // 2      # equal for an odd count
    part = np.partition(values, (low, high, count - 1), axis=-1)
    last = part[..., -1]
    return np.where(np.isnan(last), last,
                    part[..., low:high + 1].mean(axis=-1))


def median_of_means(values: np.ndarray, plan: BoostingPlan | None = None
                    ) -> tuple[float, np.ndarray]:
    """Boost per-instance estimator values into a single estimate.

    Parameters
    ----------
    values:
        1-d array of per-instance estimator values.
    plan:
        Optional explicit boosting plan; instances beyond
        ``plan.total_instances`` are ignored.  Defaults to
        :func:`split_instances` of the instance count.

    Returns
    -------
    ``(estimate, group_means)``.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise SketchConfigError("cannot boost an empty set of estimator values")
    if plan is None:
        plan = split_instances(values.size)
    usable = plan.total_instances
    if usable > values.size:
        raise SketchConfigError(
            f"boosting plan needs {usable} instances but only {values.size} are available"
        )
    grouped = values[:usable].reshape(plan.num_groups, plan.group_size)
    group_means = grouped.mean(axis=1)
    return float(_median(group_means)), group_means


def median_of_means_batch(values: np.ndarray, plan: BoostingPlan | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Boost a whole batch of per-instance value vectors at once.

    The rows of ``values`` (shape ``(num_queries, num_instances)``) are
    independent per-query estimator values; the result is bit-identical to
    calling :func:`median_of_means` on every row, but the grouping, the
    group means and the median selection all run as single NumPy kernels
    over the batch — one median-of-instances reduction per batch instead of
    one per query.

    Returns
    -------
    ``(estimates, group_means)`` with shapes ``(num_queries,)`` and
    ``(num_queries, k2)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise SketchConfigError(
            f"batched boosting expects a (num_queries, num_instances) matrix, "
            f"got shape {values.shape}"
        )
    num_queries, num_instances = values.shape
    if num_instances == 0:
        raise SketchConfigError("cannot boost an empty set of estimator values")
    if plan is None:
        plan = split_instances(num_instances)
    usable = plan.total_instances
    if usable > num_instances:
        raise SketchConfigError(
            f"boosting plan needs {usable} instances but only {num_instances} are available"
        )
    grouped = values[:, :usable].reshape(num_queries, plan.num_groups, plan.group_size)
    group_means = grouped.mean(axis=2)
    if num_queries == 0:
        return np.empty(0, dtype=np.float64), group_means
    return _median(group_means), group_means


def control_adjusted(values: np.ndarray, control: np.ndarray,
                     expected: float) -> np.ndarray:
    """Per-instance values with a control variate regressed out, row by row.

    ``values`` is ``(rows, instances)``, one row per estimate; ``control``
    holds the ``(instances,)`` values of an estimator whose expectation is
    exactly ``expected``.  Each row ``Z`` becomes ``Z - beta * (control -
    expected)`` with ``beta = cov(Z, control) / var(control)`` over the
    instances, and ``beta = 0`` when the control does not vary.  The
    expectation is unchanged (up to ``beta``'s own O(1/instances) error);
    the variance falls by the squared correlation of ``Z`` with the
    control.  Every reduction runs along a row, so a row's result does not
    depend on the rows beside it.
    """
    centred = control - control.mean()
    spread = float((centred * centred).sum())
    if spread == 0.0:
        return values
    beta = (values * centred).sum(axis=1) / spread
    # values - beta[:, None] * (control - expected), in one buffer.
    adjusted = np.multiply.outer(beta, control - expected)
    return np.subtract(values, adjusted, out=adjusted)
