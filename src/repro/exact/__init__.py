"""Exact spatial query processors.

These algorithms compute the true cardinalities that the sketches and
histograms estimate.  They serve two purposes: ground truth for the
relative-error experiments of Section 7, and reference oracles for the
test suite.
"""

from repro.exact.fenwick import FenwickTree
from repro.exact.interval_join import interval_join_count
from repro.exact.rectangle_join import brute_force_join_count, rectangle_join_count
from repro.exact.containment import containment_join_count
from repro.exact.epsilon_join import epsilon_join_count
from repro.exact.range_query import range_query_count

__all__ = [
    "FenwickTree",
    "interval_join_count",
    "rectangle_join_count",
    "brute_force_join_count",
    "containment_join_count",
    "epsilon_join_count",
    "range_query_count",
]
