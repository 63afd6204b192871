"""Shared machinery for the sketch-based join estimators.

Every join estimator in this library follows the same pattern:

1. maintain one :class:`~repro.core.atomic.SketchBank` per join input, built
   over *shared* xi families,
2. compute, per atomic-sketch instance, the estimator random variable Z as a
   linear combination of products of word counters,
3. boost the per-instance values into a final estimate via median-of-means
   (Section 2.3).

The linear combinations themselves are all generated from *per-dimension
pair terms*: a pair term ``(letter_R, letter_S, coefficient)`` states that
in a single dimension the product of the letter_R counter of R and the
letter_S counter of S contributes with the given coefficient to the
per-dimension count.  For d dimensions the estimator is the sum over all
ways of picking one pair term per dimension, with the product of the
coefficients (this is exactly how the paper's Z generalises from Theorem 1
to Theorem 3 and Appendices B/C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.core.atomic import Letter, Word
from repro.core.boosting import BoostingPlan
from repro.core.domain import Domain, EndpointTransform
from repro.core.estimator import Prepared, QuerylessProgramEstimator, Side
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet

__all__ = ["PairTerm", "expand_pair_terms", "PairedSketchJoinEstimator"]


@dataclass(frozen=True)
class PairTerm:
    """A per-dimension contribution to the estimator (see module docstring)."""

    left_letter: Letter
    right_letter: Letter
    coefficient: float


def expand_pair_terms(pair_terms: Sequence[PairTerm], dimension: int
                      ) -> dict[tuple[Word, Word], float]:
    """Accumulate coefficients of (left word, right word) products for d dims."""
    combos: dict[tuple[Word, Word], float] = {}
    for choice in itertools.product(pair_terms, repeat=dimension):
        left_word = tuple(term.left_letter for term in choice)
        right_word = tuple(term.right_letter for term in choice)
        coefficient = 1.0
        for term in choice:
            coefficient *= term.coefficient
        key = (left_word, right_word)
        combos[key] = combos.get(key, 0.0) + coefficient
    return combos


class PairedSketchJoinEstimator(QuerylessProgramEstimator):
    """Base class for estimators over two spatial inputs R (left) and S (right).

    Subclasses define the pair terms; this class owns the endpoint
    transform and expands the terms into the word pairs
    :class:`~repro.core.estimator.QuerylessProgramEstimator` lowers.
    """

    SIDES = (Side("left", "left", "left_count"),
             Side("right", "right", "right_count"))

    def __init__(self, domain: Domain, pair_terms: Sequence[PairTerm],
                 num_instances: int, *, seed=0,
                 boosting: BoostingPlan | None = None,
                 use_endpoint_transform: bool = False) -> None:
        self._pair_terms = tuple(pair_terms)
        if not self._pair_terms:
            raise SketchConfigError("at least one pair term is required")

        self._transform = EndpointTransform(domain) if use_endpoint_transform else None

        super().__init__(
            domain, num_instances, seed=seed, boosting=boosting,
            sketch_domain=(self._transform.expanded_domain
                           if self._transform is not None else domain),
            combos=expand_pair_terms(self._pair_terms, domain.dimension))

    # -- introspection --------------------------------------------------------

    def storage_words(self) -> float:
        """Words charged to each dataset under the Section 7 accounting of
        :mod:`repro.core.space`."""
        from repro.core import space

        counters = len(self._banks["left"].words)
        return space.sketch_words(self.dimension, self._num_instances,
                                  counters_per_instance=counters)

    # -- the contract's family pieces ---------------------------------------------------

    def _prepare(self, side: str, boxes: BoxSet) -> Prepared:
        if self._transform is None:
            return boxes, None
        if side == "left":
            return self._transform.transform_left(boxes), None
        return self._transform.transform_right(boxes), None

    def _compatibility(self) -> dict:
        return {"pair_terms": self._pair_terms}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(d={self.dimension}, instances={self._num_instances}, "
            f"|R|={self.left_count}, |S|={self.right_count})"
        )
