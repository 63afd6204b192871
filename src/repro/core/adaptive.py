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

from repro.core.atomic import Letter, all_words
from repro.core.domain import Domain
from repro.core.selfjoin import dataset_self_join_size
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet


def candidate_levels(domain: Domain) -> list[int]:
    """All levels that can be used as a uniform maxLevel for the domain."""
    height = min(dyadic.height for dyadic in domain.dyadics)
    return list(range(height + 1))


def choose_max_level(sample: BoxSet, domain: Domain) -> int:
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
        The data space; every level of it is a candidate.
    """
    if len(sample) == 0:
        raise SketchConfigError("cannot choose a max level from an empty sample")
    words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], domain.dimension)
    return min(candidate_levels(domain), key=lambda level: dataset_self_join_size(
        sample, domain.with_max_level(level), words))

