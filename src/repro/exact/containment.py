"""Exact cardinality of containment joins (Appendix B.2 ground truth)."""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionalityError
from repro.geometry.boxset import BoxSet

#: Outer rows compared against every inner row at once.
_CHUNK_ROWS = 512


def containment_join_count(outer: BoxSet, inner: BoxSet) -> int:
    """Number of pairs ``(r, s)`` with ``s`` (inner) contained in ``r`` (outer).

    Containment is closed: ``l(r_i) <= l(s_i)`` and ``u(s_i) <= u(r_i)`` in
    every dimension.
    """
    if outer.dimension != inner.dimension:
        raise DimensionalityError("inputs have different dimensionality")
    if len(outer) == 0 or len(inner) == 0:
        return 0
    total = 0
    i_lo, i_hi = inner.lows, inner.highs
    for start in range(0, len(outer), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(outer))
        o_lo = outer.lows[start:stop, None, :]
        o_hi = outer.highs[start:stop, None, :]
        contained = np.all((o_lo <= i_lo[None, :, :]) & (i_hi[None, :, :] <= o_hi), axis=2)
        total += int(np.count_nonzero(contained))
    return total
