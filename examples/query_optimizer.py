"""Query optimization: sketch-based selectivities drive join-order choice.

This is the scenario that motivates the paper's introduction: spatial joins
are expensive, so the optimizer needs accurate selectivity estimates to pick
a good plan.  The example builds a small GIS-style catalog (parcels, flood
zones, sensor coverage areas), attaches a synopsis manager that keeps a
join sketch per relation pair, and lets the optimizer plan a three-way
overlap join.  The chosen plan is then executed and compared against every
other join order.

Run with::

    python examples/query_optimizer.py
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import Domain
from repro.data import synthetic
from repro.engine import Catalog, JoinQuery, Optimizer, SynopsisManager


def main() -> None:
    rng = np.random.default_rng(23)
    domain = Domain.square(2048, dimension=2)

    catalog = Catalog(domain)
    catalog.create("parcels",
                   boxes=synthetic.generate_rectangles(3_000, domain, rng=rng))
    catalog.create("flood_zones",
                   boxes=synthetic.generate_rectangles(800, domain, skew=0.9, rng=rng))
    catalog.create("sensor_coverage",
                   boxes=synthetic.generate_rectangles(250, domain, skew=0.4, rng=rng))

    synopses = SynopsisManager(domain.with_max_level(5), num_instances=256, seed=11)
    optimizer = Optimizer(catalog, synopses)

    # Pairwise selectivities as the optimizer sees them.
    print("estimated pairwise selectivities:")
    for left, right in itertools.combinations(catalog.names(), 2):
        selectivity = optimizer.estimated_pair_selectivity(catalog.get(left),
                                                           catalog.get(right))
        print(f"  {left:16s} x {right:16s}: {selectivity:.5f}")

    query = JoinQuery(relations=("parcels", "flood_zones", "sensor_coverage"))
    plan = optimizer.plan_join(query)
    chosen = optimizer.execute_plan(plan)
    print("\nchosen plan (cost = C_out, the sum of intermediate cardinalities):")
    print(f"  join order     : {' > '.join(plan.order)}")
    for step, exact, q_error in zip(plan.steps, chosen.step_cardinalities,
                                    chosen.q_errors()):
        print(f"  step           : {step.left} join {step.right} "
              f"(est. {step.estimated_cardinality:,.0f}, true {exact:,}, "
              f"q-error {q_error:.2f})")
    print(f"  C_out          : est. {plan.estimated_cost:,.0f}, true {chosen.cost:,}; "
          f"{chosen.cardinality:,} result combinations")

    print("\nall join orders (estimated and true C_out):")
    for order in itertools.permutations(query.relations):
        execution = optimizer.execute_plan(optimizer.cost_order(tuple(order)))
        marker = "  <== chosen" if tuple(order) == plan.order else ""
        print(f"  {' > '.join(order):55s} {execution.plan.estimated_cost:>12,.0f} "
              f"{execution.cost:>10,}{marker}")


if __name__ == "__main__":
    main()
