"""Epsilon-join estimation for point sets (Section 6.3).

``A join_eps B`` pairs every point of A with every point of B at
L-infinity distance at most ``eps``.  Following the paper, each point
``b`` of B is replaced by the hyper-cube ``b'`` of side length ``2 eps``
centred at ``b``; then ``dist_inf(a, b) <= eps`` iff ``a`` lies inside
``b'``, and the join cardinality is estimated by

    Z = X_E * Y_I

where ``X_E`` sketches the points of A with per-dimension point covers and
``Y_I`` sketches the cubes of B' with per-dimension interval covers
(Lemmas 7 and 8).  Both sides take their points as degenerate boxes
(``lo == hi``): the A points are sketched as they are, and a B point's
``lows`` are the centre of its cube.  Points lie strictly inside the
domain, so the cubes can be clipped at the domain boundary without
changing the result.
"""

from __future__ import annotations

import numpy as np

from repro.core.atomic import Letter
from repro.core.domain import Domain
from repro.core.estimator import Prepared, QuerylessProgramEstimator, Side
from repro.errors import DomainError
from repro.geometry.boxset import BoxSet


class EpsilonJoinEstimator(QuerylessProgramEstimator):
    """Estimates ``|A join_eps B|`` under the L-infinity distance.

    One word pair, ``Z = X_E * Y_I``; updates, merging, persistence and
    the estimate surface are inherited from
    :class:`~repro.core.estimator.QuerylessProgramEstimator`.
    """

    SIDES = (Side("left", "points", "left_count", points=True),
             Side("right", "cubes", "right_count", points=True))
    STATE_COMPAT = ("epsilon",)

    def __init__(self, domain: Domain, epsilon: int, num_instances: int, *,
                 seed=0) -> None:
        if epsilon < 0:
            raise DomainError("epsilon must be non-negative")
        self._epsilon = int(epsilon)
        points = (Letter.LOWER_POINT,) * domain.dimension
        cubes = (Letter.INTERVAL,) * domain.dimension
        super().__init__(domain, num_instances, seed=seed, boosting=None,
                         sketch_domain=domain, combos={(points, cubes): 1.0})

    # -- the contract's family pieces ---------------------------------------------

    def _prepare(self, side: str, points: BoxSet) -> Prepared:
        """A points are sketched as they are, B points as epsilon-cubes."""
        self._domain.validate_boxes(
            points, what="A points" if side == "left" else "B points")
        if side == "left":
            return points, None
        per_dim_hi = np.asarray(self._domain.sizes, dtype=np.int64) - 1
        return BoxSet(np.maximum(points.lows - self._epsilon, 0),
                      np.minimum(points.lows + self._epsilon, per_dim_hi),
                      validate=False), None

    def _compatibility(self) -> dict:
        return {"epsilon": self._epsilon}
