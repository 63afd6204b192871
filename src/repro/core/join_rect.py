"""Spatial join of rectangle sets (Section 4.2, Theorem 2).

:class:`RectangleJoinEstimator` is the two-dimensional specialisation of
:class:`~repro.core.join_hyperrect.SpatialJoinEstimator`.  It is the
estimator used by the paper's main experiments (Figures 5, 6, 9, 10, 11).
"""

from __future__ import annotations

from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.errors import DimensionalityError


class RectangleJoinEstimator(SpatialJoinEstimator):
    """Estimates ``|R join_o S|`` for two sets of two-dimensional rectangles."""

    def __init__(self, domain: Domain, num_instances: int, *, seed=0,
                 endpoint_policy: str = "transform") -> None:
        if domain.dimension != 2:
            raise DimensionalityError("RectangleJoinEstimator requires a 2-dimensional domain")
        super().__init__(domain, num_instances, seed=seed,
                         endpoint_policy=endpoint_policy)
