"""A small spatial query engine.

This package provides the SDBMS context that motivates the paper: spatial
relations with streaming maintenance, physical join operators with a cost
model, join sketches per relation pair that are kept up to date under
inserts and deletes, and an optimizer that uses the estimated
selectivities to pick join algorithms and join orders.

The engine is deliberately small — it exists to demonstrate and benchmark
how sketch-based selectivity estimates drive plan choices — but every part
of it is real: operators execute exactly, costs are measured in comparisons
performed, and the optimizer's decisions can be checked against exhaustive
enumeration.
"""

from repro.engine.relation import SpatialRelation
from repro.engine.catalog import Catalog
from repro.engine.synopses import SynopsisManager
from repro.engine.operators import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    PlaneSweepJoin,
    RTreeJoin,
)
from repro.engine.cost import CostModel
from repro.engine.optimizer import JoinPlan, Optimizer
from repro.engine.query import JoinQuery

__all__ = [
    "SpatialRelation",
    "Catalog",
    "SynopsisManager",
    "NestedLoopJoin",
    "PlaneSweepJoin",
    "IndexNestedLoopJoin",
    "RTreeJoin",
    "CostModel",
    "Optimizer",
    "JoinPlan",
    "JoinQuery",
]
