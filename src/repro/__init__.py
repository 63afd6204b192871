"""repro — sketch-based selectivity estimation for spatial data.

A reproduction of *"Approximation Techniques for Spatial Data"*
(Das, Gehrke, Riedewald; SIGMOD 2004).  The library provides:

* AMS-style *spatial sketches* with provable probabilistic error guarantees
  for spatial joins, epsilon-joins, containment joins and range queries
  (:mod:`repro.core`),
* the Geometric- and Euler-histogram baselines the paper compares against
  (:mod:`repro.histograms`),
* exact spatial query processors used as ground truth (:mod:`repro.exact`),
* workload generators (:mod:`repro.data`), a small spatial query engine
  whose optimizer orders joins by sketch-estimated cardinalities
  (:mod:`repro.engine`) and the experiment harness that regenerates the
  paper's figures (:mod:`repro.experiments`).

Quick start::

    import numpy as np
    from repro import Domain, SpatialJoinEstimator
    from repro.data import synthetic
    from repro.exact import rectangle_join_count

    rng = np.random.default_rng(7)
    domain = Domain.square(4096, dimension=2)
    left = synthetic.generate_rectangles(5_000, domain, rng=rng)
    right = synthetic.generate_rectangles(5_000, domain, rng=rng)

    estimator = SpatialJoinEstimator(domain, num_instances=256, seed=11)
    estimator.update("left", left)
    estimator.update("right", right)
    print(estimator.estimate().estimate, rectangle_join_count(left, right))
"""

from repro.version import __version__
from repro.errors import (
    DimensionalityError,
    DomainError,
    EngineError,
    EstimationError,
    MergeCompatibilityError,
    QueryError,
    ReproError,
    ServiceError,
    SketchConfigError,
    SnapshotError,
    WorkloadError,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DomainError",
    "DimensionalityError",
    "SketchConfigError",
    "MergeCompatibilityError",
    "QueryError",
    "EstimationError",
    "WorkloadError",
    "EngineError",
    "ServiceError",
    "SnapshotError",
    # geometry
    "BoxSet",
    # core
    "Domain",
    "DyadicDomain",
    "EndpointTransform",
    "Letter",
    "SketchBank",
    "BoostingPlan",
    "EstimateResult",
    "median_of_means",
    "median_of_means_batch",
    "plan_boosting",
    "stable_seed_offset",
    "self_join_size",
    "dataset_self_join_size",
    "choose_max_level",
    "SpatialJoinEstimator",
    "ExtendedOverlapJoinEstimator",
    "ContainmentJoinEstimator",
    "EpsilonJoinEstimator",
    "RangeQueryEstimator",
]


def __getattr__(name: str):
    # The geometry and core names load on first use, so ``import repro`` —
    # and every CLI verb up to its first real work — loads no NumPy.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro import core, geometry

    value = globals()[name] = getattr(
        geometry if name in geometry.__all__ else core, name)
    return value
