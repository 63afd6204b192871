"""Reusable building blocks of the figure experiments.

The harness keeps the figure definitions in :mod:`repro.experiments.figures`
short: given two datasets and a memory budget it builds the SKETCH, GH and
EH summaries, produces their estimates and reports relative errors averaged
over independent runs.

A practical note on cost: a sketch built with ``k`` atomic-sketch instances
contains, as a prefix, a valid sketch for any smaller instance count.  The
space-sweep experiments (Figures 9-11) therefore build the sketch once per
run at the *largest* budget and evaluate smaller budgets on instance
prefixes, which cuts the running time by the number of budget points.
"""

from __future__ import annotations

import numpy as np

from repro.core import space
from repro.core.adaptive import choose_max_level
from repro.core.boosting import median_of_means, split_instances
from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.experiments.metrics import mean_relative_error, relative_error
from repro.geometry.boxset import BoxSet
from repro.histograms.euler import EulerHistogram
from repro.histograms.geometric import GeometricHistogram


#: Boxes drawn from each input to choose the maxLevel from.
ADAPTIVE_SAMPLE_SIZE = 300


def adaptive_domain(left: BoxSet, right: BoxSet, domain: Domain, *,
                    seed: int = 0) -> Domain:
    """The domain with the maxLevel chosen from a sample of both inputs (Section 6.5)."""
    rng = np.random.default_rng(seed)
    sample_left = left.sample(min(ADAPTIVE_SAMPLE_SIZE, len(left)), rng)
    sample_right = right.sample(min(ADAPTIVE_SAMPLE_SIZE, len(right)), rng)
    level = choose_max_level(sample_left.concat(sample_right), domain)
    return domain.with_max_level(level)


def sketch_error_for_budgets(left: BoxSet, right: BoxSet, domain: Domain, truth: float, *,
                             budgets: tuple[int, ...], runs: int = 3, seed: int = 0
                             ) -> dict[int, float]:
    """Mean relative error of SKETCH for several word budgets, on the
    domain :func:`adaptive_domain` tunes.

    The sketch is built once per run at the largest budget; smaller budgets
    reuse a prefix of its atomic-sketch instances.  One budget is the error
    of a sketch built at that budget: the prefix of all its instances,
    boosted by the same :func:`split_instances` plan.
    """
    domain = adaptive_domain(left, right, domain, seed=seed)
    budgets = tuple(sorted(budgets))
    instance_counts = {budget: space.instances_for_budget(budget, domain.dimension)
                       for budget in budgets}
    max_instances = max(instance_counts.values())

    per_budget_estimates: dict[int, list[float]] = {budget: [] for budget in budgets}
    for run in range(runs):
        estimator = SpatialJoinEstimator(domain, max_instances, seed=seed + 1000 * (run + 1))
        estimator.update("left", left)
        estimator.update("right", right)
        values = estimator.estimate().instance_values
        for budget in budgets:
            count = instance_counts[budget]
            estimate, _ = median_of_means(values[:count], split_instances(count))
            per_budget_estimates[budget].append(estimate)
    return {budget: mean_relative_error(estimates, truth)
            for budget, estimates in per_budget_estimates.items()}


def histogram_errors(left: BoxSet, right: BoxSet, domain: Domain, truth: float, *,
                     budget_words: float) -> dict[str, float]:
    """Relative errors of the EH and GH baselines at a word budget."""
    results: dict[str, float] = {}
    try:
        eh_level = space.euler_level_for_budget(budget_words)
        eh_left = EulerHistogram(domain, eh_level)
        eh_right = EulerHistogram(domain, eh_level)
        eh_left.insert(left)
        eh_right.insert(right)
        results["EH"] = relative_error(eh_left.estimate_join(eh_right), truth)
        results["EH_level"] = eh_level
    except Exception:  # budget too small for even a level-0 histogram
        results["EH"] = float("nan")
        results["EH_level"] = -1
    try:
        gh_level = space.geometric_level_for_budget(budget_words)
        gh_left = GeometricHistogram(domain, gh_level)
        gh_right = GeometricHistogram(domain, gh_level)
        gh_left.insert(left)
        gh_right.insert(right)
        results["GH"] = relative_error(gh_left.estimate_join(gh_right), truth)
        results["GH_level"] = gh_level
    except Exception:
        results["GH"] = float("nan")
        results["GH_level"] = -1
    return results
