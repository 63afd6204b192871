"""Baseline selectivity estimators the paper compares against (Section 7).

* :class:`~repro.histograms.geometric.GeometricHistogram` — the Geometric
  Histogram (GH) of An et al. [5]: a uniform grid whose cells store corner
  counts, clipped areas and clipped edge lengths.
* :class:`~repro.histograms.euler.EulerHistogram` — the generalized Euler
  Histogram (EH) of Sun et al. [25, 26]: buckets for grid cells, edges and
  vertices plus per-cell clipped-geometry statistics and a probabilistic
  per-bucket estimation model.
"""

from repro.histograms.base import GridHistogram, SelectivityEstimator
from repro.histograms.geometric import GeometricHistogram
from repro.histograms.euler import EulerHistogram

__all__ = [
    "SelectivityEstimator",
    "GridHistogram",
    "GeometricHistogram",
    "EulerHistogram",
]
