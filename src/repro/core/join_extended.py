"""The extended join predicate (Appendix B.1).

:class:`ExtendedOverlapJoinEstimator` estimates ``|R join+_o S|``, the
*extended* spatial join where hyper-rectangles that merely touch at their
boundaries also count (Definition 4).  Following Appendix B.1, the I/E
sketches are built over endpoint-transformed (shrunk) coordinates, while
additional leaf-level endpoint sketches (X_L, X_U, ...) over the original
coordinates capture exactly the touching configurations:

    Z = sum over words w in {I, E, L, U}^d of  X_w * Y_{w-bar} / 2^{c(w)}

with ``c(w)`` the number of I/E letters in ``w``.  The Appendix C
estimator of the *strict* join on the original domain is
``SpatialJoinEstimator(endpoint_policy="explicit")``
(:mod:`repro.core.join_hyperrect`).
"""

from __future__ import annotations

from repro.core.atomic import Letter
from repro.core.domain import Domain
from repro.core.estimator import Prepared
from repro.core.join_base import PairTerm, PairedSketchJoinEstimator
from repro.geometry.boxset import BoxSet


#: Per-dimension pair terms of the extended-overlap estimator (Appendix B.1).
#: The strict-overlap part is estimated on shrunk coordinates; the two leaf
#: terms count the "meet" configurations on the original (scaled) coordinates.
EXTENDED_OVERLAP_PAIR_TERMS: tuple[PairTerm, ...] = (
    PairTerm(Letter.INTERVAL, Letter.ENDPOINTS, 0.5),
    PairTerm(Letter.ENDPOINTS, Letter.INTERVAL, 0.5),
    PairTerm(Letter.LOWER_LEAF, Letter.UPPER_LEAF, 1.0),
    PairTerm(Letter.UPPER_LEAF, Letter.LOWER_LEAF, 1.0),
)


class ExtendedOverlapJoinEstimator(PairedSketchJoinEstimator):
    """Estimates the extended spatial join ``|R join+_o S|`` (touching counts)."""

    def __init__(self, domain: Domain, num_instances: int, *, seed=0) -> None:
        super().__init__(domain, EXTENDED_OVERLAP_PAIR_TERMS, num_instances,
                         seed=seed, use_endpoint_transform=True)

    def _prepare(self, side: str, boxes: BoxSet) -> Prepared:
        if side == "left":
            return super()._prepare(side, boxes)
        # I/E letters see the shrunk coordinates; the leaf letters must see the
        # merely-scaled coordinates so that shared endpoints remain detectable.
        assert self._transform is not None
        shrunk = self._transform.transform_right(boxes)
        scaled = self._transform.transform_left(boxes)
        return shrunk, {Letter.LOWER_LEAF: scaled, Letter.UPPER_LEAF: scaled}
