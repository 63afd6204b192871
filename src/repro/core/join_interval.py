"""Spatial join of interval sets (Section 4.1, Theorem 1).

:class:`IntervalJoinEstimator` is the one-dimensional specialisation of
:class:`~repro.core.join_hyperrect.SpatialJoinEstimator`.
"""

from __future__ import annotations

from repro.core.boosting import BoostingPlan
from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.errors import DimensionalityError


class IntervalJoinEstimator(SpatialJoinEstimator):
    """Estimates ``|R join_o S|`` for two sets of one-dimensional intervals."""

    def __init__(self, domain: Domain | int, num_instances: int, *, seed=0,
                 endpoint_policy: str = "transform",
                 boosting: BoostingPlan | None = None) -> None:
        if isinstance(domain, int):
            domain = Domain(domain)
        if domain.dimension != 1:
            raise DimensionalityError("IntervalJoinEstimator requires a 1-dimensional domain")
        super().__init__(domain, num_instances, seed=seed,
                         endpoint_policy=endpoint_policy, boosting=boosting)
