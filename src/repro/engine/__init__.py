"""A small spatial query engine.

This package provides the SDBMS context that motivates the paper: spatial
relations with streaming maintenance, join sketches per relation pair that
are kept up to date under inserts, and an optimizer that orders
multi-way joins by C_out — the sum of the intermediate cardinalities the
sketches estimate.

The engine is deliberately small — it exists to demonstrate and benchmark
how sketch-based selectivity estimates drive plan choices — but every part
of it is real: plans execute exactly, execution reports the true
cardinality of every intermediate result, and the optimizer's decisions can
be checked against exhaustive enumeration.
"""

from repro.engine.relation import SpatialRelation
from repro.engine.catalog import Catalog
from repro.engine.synopses import SynopsisManager
from repro.engine.optimizer import JoinPlan, Optimizer
from repro.engine.query import JoinQuery

__all__ = [
    "SpatialRelation",
    "Catalog",
    "SynopsisManager",
    "Optimizer",
    "JoinPlan",
    "JoinQuery",
]
