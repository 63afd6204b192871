"""The paper's primary contribution: sketches for spatial data.

Public entry points re-exported here:

* :class:`~repro.core.dyadic.DyadicDomain` — dyadic decomposition of a domain.
* :class:`~repro.core.atomic.SketchBank` — banks of atomic spatial sketches.
* Join / query estimators:
  :class:`~repro.core.join_hyperrect.SpatialJoinEstimator` (intervals,
  rectangles and hyper-rectangles; the Appendix C common-endpoint
  estimator is its ``endpoint_policy="explicit"``),
  :class:`~repro.core.join_extended.ExtendedOverlapJoinEstimator`,
  :class:`~repro.core.join_containment.ContainmentJoinEstimator`,
  :class:`~repro.core.epsilon_join.EpsilonJoinEstimator`,
  :class:`~repro.core.range_query.RangeQueryEstimator`.
* :class:`~repro.core.estimator.SketchEstimator` — the one contract those
  five share: declared sides, ``update`` / ``merge`` / ``state_dict`` /
  ``companion`` / ``with_delta``; the four joins lower through
  :class:`~repro.core.estimator.QuerylessProgramEstimator`, one program
  term per (left word, right word) pair.
* The compiled-program layer in :mod:`repro.core.program`:
  :class:`~repro.core.program.SketchProgram` (the shared estimator IR every
  family lowers to) and :class:`~repro.core.program.ProgramExecutor` (the
  vectorised executor with cross-query letter-sum sharing).
* Boosting helpers in :mod:`repro.core.boosting` and space accounting in
  :mod:`repro.core.space`.
"""

from repro.core.hashing import FourWiseFamilyBank, stable_seed_offset, stable_text_hash
from repro.core.dyadic import DyadicDomain
from repro.core.domain import Domain, EndpointTransform
from repro.core.atomic import Letter, SketchBank
from repro.core.boosting import (
    BoostingPlan,
    median_of_means,
    median_of_means_batch,
    plan_boosting,
)
from repro.core.program import (
    CounterRef,
    LetterSumRef,
    ProgramExecutor,
    ProgramTerm,
    SketchProgram,
    default_executor,
    describe_program,
)
from repro.core.estimator import Side, SketchEstimator
from repro.core.selfjoin import self_join_size, dataset_self_join_size
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.core.join_extended import ExtendedOverlapJoinEstimator
from repro.core.join_containment import ContainmentJoinEstimator
from repro.core.epsilon_join import EpsilonJoinEstimator
from repro.core.range_query import RangeQueryEstimator
from repro.core.adaptive import choose_max_level
from repro.core.result import EstimateResult

__all__ = [
    "FourWiseFamilyBank",
    "stable_seed_offset",
    "stable_text_hash",
    "DyadicDomain",
    "Domain",
    "EndpointTransform",
    "Letter",
    "SketchBank",
    "BoostingPlan",
    "median_of_means",
    "median_of_means_batch",
    "plan_boosting",
    "CounterRef",
    "LetterSumRef",
    "ProgramExecutor",
    "ProgramTerm",
    "SketchProgram",
    "default_executor",
    "describe_program",
    "Side",
    "SketchEstimator",
    "self_join_size",
    "dataset_self_join_size",
    "SpatialJoinEstimator",
    "ExtendedOverlapJoinEstimator",
    "ContainmentJoinEstimator",
    "EpsilonJoinEstimator",
    "RangeQueryEstimator",
    "choose_max_level",
    "EstimateResult",
]
