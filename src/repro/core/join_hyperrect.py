"""Spatial join estimation for d-dimensional hyper-rectangles.

This module implements the paper's main estimators:

* Theorem 1 (d = 1), Theorem 2 (d = 2) and Theorem 3 (general d) via
  :class:`SpatialJoinEstimator` — the estimator random variable is

      Z = 2^{-d} * sum over words w in {I, E}^d of  X_w * Y_{w-bar}

  which is unbiased for ``|R join_o S|`` when no R endpoint coincides with
  an S endpoint in any dimension (Assumption 1).

* The ``endpoint_policy`` argument selects how Assumption 1 is enforced:

  - ``"assume_distinct"`` — trust the caller (fastest, exactly Theorems 1-3),
  - ``"transform"``       — apply the Section 5.2 domain refinement so the
    assumption always holds (the default; costs two extra dyadic levels),
  - ``"explicit"``        — keep the original domain and use the Appendix C
    correction terms that explicitly subtract the over-counted shared-
    endpoint configurations.  In one dimension,

        Z = (X_I Y_E + X_E Y_I - 2 X_L Y_U - 2 X_U Y_L - X_L Y_L - X_U Y_U) / 2.

The service's ``interval`` and ``rectangle`` families are this class on a
1-d and a 2-d domain, and ``common_endpoint`` is it with the ``"explicit"``
policy (:data:`repro.service.specs.FAMILIES`).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.atomic import Letter
from repro.core.boosting import BoostingPlan
from repro.core.domain import Domain
from repro.core.join_base import PairTerm, PairedSketchJoinEstimator
from repro.errors import SketchConfigError


#: Per-dimension pair terms of the plain spatial join (Sections 4.1-4.2, 6.1).
STANDARD_PAIR_TERMS: tuple[PairTerm, ...] = (
    PairTerm(Letter.INTERVAL, Letter.ENDPOINTS, 0.5),
    PairTerm(Letter.ENDPOINTS, Letter.INTERVAL, 0.5),
)

#: Per-dimension pair terms of the Appendix C estimator, which keeps the
#: original domain and explicitly corrects for shared endpoints.
EXPLICIT_ENDPOINT_PAIR_TERMS: tuple[PairTerm, ...] = (
    PairTerm(Letter.INTERVAL, Letter.ENDPOINTS, 0.5),
    PairTerm(Letter.ENDPOINTS, Letter.INTERVAL, 0.5),
    PairTerm(Letter.LOWER_LEAF, Letter.UPPER_LEAF, -1.0),
    PairTerm(Letter.UPPER_LEAF, Letter.LOWER_LEAF, -1.0),
    PairTerm(Letter.LOWER_LEAF, Letter.LOWER_LEAF, -0.5),
    PairTerm(Letter.UPPER_LEAF, Letter.UPPER_LEAF, -0.5),
)

ENDPOINT_POLICIES = ("assume_distinct", "transform", "explicit")


class SpatialJoinEstimator(PairedSketchJoinEstimator):
    """Sketch-based estimator for ``|R join_o S|`` of two hyper-rectangle sets."""

    def __init__(self, domain: Domain, num_instances: int, *, seed=0,
                 endpoint_policy: str = "transform",
                 boosting: BoostingPlan | None = None) -> None:
        if endpoint_policy not in ENDPOINT_POLICIES:
            raise SketchConfigError(
                f"endpoint_policy must be one of {ENDPOINT_POLICIES}, got {endpoint_policy!r}"
            )
        self._endpoint_policy = endpoint_policy
        if endpoint_policy == "explicit":
            pair_terms: Sequence[PairTerm] = EXPLICIT_ENDPOINT_PAIR_TERMS
            use_transform = False
        else:
            pair_terms = STANDARD_PAIR_TERMS
            use_transform = endpoint_policy == "transform"
        super().__init__(domain, pair_terms, num_instances, seed=seed,
                         boosting=boosting, use_endpoint_transform=use_transform)

    @property
    def endpoint_policy(self) -> str:
        return self._endpoint_policy
