"""Adaptive choice of the maximum dyadic level (Section 6.5).

The dyadic endpoint sketch adds, for every inserted object, the xi variable
of *every* dyadic level up to the root, so for datasets of mostly short
intervals the coarse levels inflate the self-join size (and hence the
variance) without being needed to cover the objects.  Section 6.5 proposes
to cap the levels at a data-dependent ``maxLevel``: lower levels reduce
SJ(X_E) but make long intervals more expensive to cover.

:func:`choose_max_level` implements that trade-off by estimating, from a
sample of the data (e.g. interval-length statistics collected on the
stream), the dataset self-join size ``SJ(R) = sum_w SJ(X_w)`` for every
candidate level and returning the level that minimises it.  ``maxLevel = 0``
degenerates to the standard (non-dyadic) sketches.
"""

from __future__ import annotations

import numpy as np

from repro.core.atomic import Letter, all_words
from repro.core.domain import Domain
from repro.core.selfjoin import dataset_self_join_size
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet


def candidate_levels(domain: Domain) -> list[int]:
    """All levels that can be used as a uniform maxLevel for the domain."""
    height = min(dyadic.height for dyadic in domain.dyadics)
    return list(range(height + 1))


def choose_max_level(sample: BoxSet, domain: Domain, *,
                     levels: list[int] | None = None,
                     min_level: int | None = None,
                     update_cost_weight: float = 0.0) -> int:
    """Pick a uniform maxLevel for all dimensions from a data sample.

    The score is the sample's own self-join size over the join words
    (interval and endpoint covers): the variance of a *join*, where both
    sides are data.  A range query's variance also grows with the query's
    cover as the cap drops, which this score does not see — a range
    sketch's cap is :func:`repro.core.dyadic.range_max_levels`.

    Parameters
    ----------
    sample:
        A (sub)sample of the dataset; only its side-length distribution and
        coordinate placement matter.
    domain:
        The data space.
    levels:
        Candidate levels; defaults to all levels of the domain.
    min_level:
        Optional lower bound on the returned level (e.g. to cap the update
        cost of very long objects).
    update_cost_weight:
        Optional weight that penalises the per-object cover size (update
        cost); 0 optimises purely for self-join size / estimate variance.
    """
    if len(sample) == 0:
        raise SketchConfigError("cannot choose a max level from an empty sample")
    if levels is None:
        levels = candidate_levels(domain)
    if min_level is not None:
        levels = [lvl for lvl in levels if lvl >= min_level]
    if not levels:
        raise SketchConfigError("no candidate levels to choose from")

    words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], domain.dimension)
    best_level = levels[0]
    best_score = None
    for level in levels:
        restricted = domain.with_max_level(level)
        score = dataset_self_join_size(sample, restricted, words)
        if update_cost_weight:
            score += update_cost_weight * _average_cover_size(sample, restricted)
        if best_score is None or score < best_score:
            best_score = score
            best_level = level
    return best_level


def _average_cover_size(sample: BoxSet, domain: Domain) -> float:
    """Average number of dyadic intervals needed to cover an object."""
    total = 0
    for dim in range(domain.dimension):
        _, lengths = domain.dyadic(dim).covers(sample.lows[:, dim], sample.highs[:, dim])
        total += int(np.sum(lengths))
    return total / max(1, len(sample))

