"""Space accounting in machine words.

Section 7 of the paper compares SKETCH, GH and EH at equal memory budgets,
measured in "units (words) of memory" *per dataset*.  This module
centralises that accounting so the experiments are internally consistent:

* An atomic-sketch instance for the {I, E}^d join estimator stores ``2^d``
  counters per dataset plus ``4`` seed words per dimension; the seeds are
  shared by the two join inputs, so each dataset is charged half of them
  (``2 d`` words).
* A generalized Euler histogram of grid level L uses ``9*4^L - 6*2^L + 1``
  words (Section 7).
* A Geometric Histogram of grid level L uses ``4^(L+1)`` words (4 statistics
  for each of the ``4^L`` cells; the paper writes this as ``4^(L+1)``).
"""

from __future__ import annotations

import math

from repro.errors import SketchConfigError


SEED_WORDS_PER_DIMENSION = 4
"""Words needed to store one degree-3 polynomial seed."""


def sketch_words_per_instance(dimension: int, *,
                              counters_per_instance: int | None = None) -> float:
    """Words charged to one dataset for a single atomic-sketch instance."""
    if dimension < 1:
        raise SketchConfigError("dimension must be at least 1")
    if counters_per_instance is None:
        counters_per_instance = 2 ** dimension
    return counters_per_instance + SEED_WORDS_PER_DIMENSION * dimension / 2


def sketch_words(dimension: int, num_instances: int, *,
                 counters_per_instance: int | None = None) -> float:
    """Total words charged to one dataset for a bank of ``num_instances``."""
    return num_instances * sketch_words_per_instance(
        dimension, counters_per_instance=counters_per_instance)


def instances_for_budget(budget_words: float, dimension: int) -> int:
    """Largest number of atomic-sketch instances that fits in a word budget."""
    per_instance = sketch_words_per_instance(dimension)
    instances = int(budget_words // per_instance)
    if instances < 1:
        raise SketchConfigError(
            f"budget of {budget_words} words cannot hold even one instance "
            f"({per_instance} words each)"
        )
    return instances


def euler_histogram_words(level: int) -> int:
    """Memory of a generalized Euler histogram of grid level ``level``."""
    if level < 0:
        raise SketchConfigError("grid level must be non-negative")
    cells = 2 ** level
    return 9 * cells * cells - 6 * cells + 1


def geometric_histogram_words(level: int) -> int:
    """Memory of a Geometric Histogram of grid level ``level``."""
    if level < 0:
        raise SketchConfigError("grid level must be non-negative")
    return 4 ** (level + 1)


def euler_level_for_budget(budget_words: float) -> int:
    """Finest Euler-histogram grid level that fits in the budget."""
    level = 0
    while euler_histogram_words(level + 1) <= budget_words:
        level += 1
    if euler_histogram_words(level) > budget_words:
        raise SketchConfigError(
            f"budget of {budget_words} words cannot hold an Euler histogram"
        )
    return level


def geometric_level_for_budget(budget_words: float) -> int:
    """Finest Geometric-Histogram grid level that fits in the budget."""
    level = 0
    while geometric_histogram_words(level + 1) <= budget_words:
        level += 1
    if geometric_histogram_words(level) > budget_words:
        raise SketchConfigError(
            f"budget of {budget_words} words cannot hold a Geometric Histogram"
        )
    return level


def dataset_storage_words(num_objects: int, dimension: int) -> int:
    """Words needed to store a dataset exactly (``2 d`` coordinates per object).

    Section 7.2 uses this to report the sketch size as a fraction of the
    dataset size.
    """
    if num_objects < 0 or dimension < 1:
        raise SketchConfigError("invalid dataset shape")
    return 2 * dimension * num_objects


def required_instances_for_guarantee(epsilon: float, phi: float, sj_left: float,
                                     sj_right: float, result_lower_bound: float) -> int:
    """Total instances required by Theorem 1/2 for an (epsilon, phi) guarantee."""
    if epsilon <= 0 or not 0 < phi < 1:
        raise SketchConfigError("epsilon must be positive and phi in (0, 1)")
    if result_lower_bound <= 0:
        raise SketchConfigError("result lower bound must be positive")
    k1 = max(1, math.ceil(4.0 * sj_left * sj_right /
                          (epsilon ** 2 * result_lower_bound ** 2)))
    k2 = max(1, math.ceil(2.0 * math.log2(1.0 / phi)))
    return k1 * k2
