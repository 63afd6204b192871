"""Quick start: estimate a spatial-join selectivity with spatial sketches.

The example builds two synthetic rectangle datasets, summarises each with a
sketch (a few hundred atomic-sketch instances), and compares the estimated
join cardinality and selectivity with the exact answer computed by the
plane-sweep join.  It also shows how Theorem 2 sizes a sketch for a target
(epsilon, phi) guarantee.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Domain, SpatialJoinEstimator
from repro.core import space
from repro.core.selfjoin import dataset_self_join_size
from repro.data import synthetic
from repro.exact import rectangle_join_count
from repro.experiments.harness import adaptive_domain


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. A 4096 x 4096 integer data space and two rectangle datasets.
    domain = Domain.square(4096, dimension=2)
    left = synthetic.generate_rectangles(5_000, domain, rng=rng)
    right = synthetic.generate_rectangles(5_000, domain, rng=rng)

    # 2. Ground truth (plane-sweep join).
    start = time.perf_counter()
    truth = rectangle_join_count(left, right)
    exact_seconds = time.perf_counter() - start
    print(f"exact join cardinality : {truth:,} "
          f"(selectivity {truth / (len(left) * len(right)):.6f}, {exact_seconds:.2f} s)")

    # 3. Pick the dyadic maxLevel from a small sample (Section 6.5) and build
    #    the sketch estimator.  512 instances cost about
    #    space.sketch_words(2, 512) = 4096 words per dataset.
    tuned = adaptive_domain(left, right, domain, seed=1)
    estimator = SpatialJoinEstimator(tuned, num_instances=512, seed=42)

    start = time.perf_counter()
    estimator.update("left", left)
    estimator.update("right", right)
    build_seconds = time.perf_counter() - start

    result = estimator.estimate()
    print(f"sketch estimate        : {result.estimate:,.0f} "
          f"(selectivity {result.selectivity:.6f})")
    print(f"relative error         : {result.relative_error(truth):.3f}")
    print(f"sketch memory          : {estimator.storage_words():,.0f} words per dataset "
          f"({build_seconds:.2f} s to build)")

    # 4. Sizing for a guarantee: how many instances would Theorem 2 require
    #    for a 30% error at 99% confidence, given the self-join sizes?
    sj_left = dataset_self_join_size(left, tuned)
    sj_right = dataset_self_join_size(right, tuned)
    required = space.required_instances_for_guarantee(
        epsilon=0.3, phi=0.01, sj_left=sj_left, sj_right=sj_right,
        result_lower_bound=truth)
    print(f"Theorem 2 sizing       : {required:,} instances "
          f"({space.sketch_words(2, required) / 1000:.1f} K words) for eps=0.3, phi=0.01")


if __name__ == "__main__":
    main()
