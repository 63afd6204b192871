"""Containment joins (Appendix B.2).

The containment join asks how many pairs ``(r, s)`` with ``r`` from the
outer input and ``s`` from the inner input satisfy ``s`` contained in ``r``
(closed containment, i.e. ``l(r_i) <= l(s_i)`` and ``u(s_i) <= u(r_i)`` in
every dimension).

Following Appendix B.2, the d-dimensional containment problem is translated
into a 2d-dimensional point-in-hyper-rectangle problem: the outer rectangle
``r`` becomes the 2d-dimensional box ``prod_i (r(i) x r(i))`` and the inner
rectangle ``s`` becomes the 2d-dimensional point
``(l(s_1), u(s_1), ..., l(s_d), u(s_d))``.  Then ``s`` is contained in ``r``
iff the point lies inside the box, which is exactly the epsilon-join
counting primitive (Section 6.3): ``Z = X_outer * Y_inner`` with an all-I
word on the box side and an all-point word on the point side.
"""

from __future__ import annotations

import numpy as np

from repro.core.atomic import Letter
from repro.core.domain import Domain
from repro.core.estimator import Prepared, QuerylessProgramEstimator, Side
from repro.geometry.boxset import BoxSet


class ContainmentJoinEstimator(QuerylessProgramEstimator):
    """Estimates ``|{(r, s) : s contained in r}|`` for two hyper-rectangle sets.

    One word pair over the doubled domain, ``Z = X_outer * Y_inner``;
    updates, merging, persistence and the estimate surface are inherited
    from :class:`~repro.core.estimator.QuerylessProgramEstimator`.
    """

    SIDES = (Side("outer", "outer", "outer_count", aliases=("left",)),
             Side("inner", "inner", "inner_count", aliases=("right",)))

    def __init__(self, domain: Domain, num_instances: int, *, seed=0) -> None:
        # The doubled domain: dimension i of the data contributes dimensions
        # 2i and 2i+1, both over the same coordinate range.
        doubled_sizes = []
        doubled_levels = []
        for dyadic in domain.dyadics:
            doubled_sizes.extend([dyadic.requested_size, dyadic.requested_size])
            level = None if dyadic.max_level == dyadic.height else dyadic.max_level
            doubled_levels.extend([level, level])
        doubled = Domain(doubled_sizes, max_levels=doubled_levels)
        boxes = (Letter.INTERVAL,) * doubled.dimension
        points = (Letter.LOWER_POINT,) * doubled.dimension
        super().__init__(domain, num_instances, seed=seed, boosting=None,
                         sketch_domain=doubled, combos={(boxes, points): 1.0})

    # -- the dimension-doubling transformation -----------------------------------------

    def _prepare(self, side: str, boxes: BoxSet) -> Prepared:
        self._domain.validate_boxes(boxes, what=f"{side} boxes")
        if side == "outer":
            # ``r -> prod_i (r(i) x r(i))`` as a 2d-dimensional box set.
            return BoxSet(np.repeat(boxes.lows, 2, axis=1),
                          np.repeat(boxes.highs, 2, axis=1), validate=False), None
        # ``s -> (l(s_1), u(s_1), ..., l(s_d), u(s_d))`` as degenerate boxes.
        n, d = boxes.lows.shape
        coords = np.empty((n, 2 * d), dtype=np.int64)
        coords[:, 0::2] = boxes.lows
        coords[:, 1::2] = boxes.highs
        return BoxSet(coords, coords.copy(), validate=False), None
