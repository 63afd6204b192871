"""Approximate range aggregates and epsilon-join correlation analysis.

Two further query classes from Section 6 of the paper:

* **Range queries** (Section 6.4): "how many objects overlap this window?"
  answered approximately from a single sketch of the dataset — the classic
  approximate range aggregate.
* **Epsilon-joins** (Section 6.3): "how many point pairs from two
  observation sets are within distance eps of each other?" — the paper
  suggests using approximate join cardinalities for correlation analysis
  between datasets; here we sweep eps and compare the estimated and exact
  "correlation profiles" of two sensor point sets.

Run with::

    python examples/range_and_epsilon_queries.py
"""

from __future__ import annotations

import numpy as np

from repro import BoxSet, Domain, EpsilonJoinEstimator, RangeQueryEstimator
from repro.data import synthetic
from repro.exact import epsilon_join_count, range_query_count


def range_query_demo(rng: np.random.Generator) -> None:
    domain = Domain.square(8_192, dimension=2)
    buildings = synthetic.generate_rectangles(20_000, domain, mean_length=40, rng=rng)

    tuned = domain.with_max_level(6)
    estimator = RangeQueryEstimator(tuned, num_instances=512, seed=3)
    estimator.update("data", buildings)

    print("range queries (estimated vs exact number of overlapping objects):")
    queries = {
        "district": BoxSet((1024, 1024), (3071, 3071)),
        "city quarter": BoxSet((0, 0), (4095, 4095)),
        "wide corridor": BoxSet((2048, 0), (4095, 8191)),
    }
    for name, window in queries.items():
        estimate = estimator.estimate(window).estimate
        exact = range_query_count(buildings, window)
        error = abs(estimate - exact) / exact if exact else float("nan")
        print(f"  {name:14s}: estimate {estimate:>9,.0f}   exact {exact:>9,}   "
              f"rel.err {error:.3f}")


def epsilon_join_demo(rng: np.random.Generator) -> None:
    domain = Domain.square(4_096, dimension=2)
    # Two sensor deployments spread over the same region.
    temperature = synthetic.generate_points(4_000, domain, rng=rng)
    humidity = synthetic.generate_points(4_000, domain, rng=rng)

    print("\nepsilon-join correlation profile (pairs within L-infinity distance eps):")
    print(f"  {'eps':>5}  {'estimate':>12}  {'exact':>12}  {'rel.err':>7}")
    for epsilon in (64, 256, 1024):
        # Restrict the dyadic levels to roughly the epsilon-cube size
        # (Section 6.5 applied to this query type) and spend more instances:
        # Lemma 8's variance bound is higher than the plain join's.
        level = int(np.ceil(np.log2(2 * epsilon)))
        tuned = domain.with_max_level(min(level, domain.dyadic(0).height))
        estimator = EpsilonJoinEstimator(tuned, epsilon, num_instances=1024, seed=7)
        estimator.update("left", temperature)
        estimator.update("right", humidity)
        estimate = estimator.estimate().estimate
        exact = epsilon_join_count(temperature, humidity, epsilon)
        error = abs(estimate - exact) / exact if exact else float("nan")
        print(f"  {epsilon:>5}  {estimate:>12,.0f}  {exact:>12,}  {error:>7.3f}")
    print("\nA rising profile means the two deployments are spatially correlated; the "
          "sketches deliver it without computing any exact join.")


def main() -> None:
    rng = np.random.default_rng(29)
    range_query_demo(rng)
    epsilon_join_demo(rng)


if __name__ == "__main__":
    main()
