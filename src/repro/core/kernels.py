"""Optional compiled kernel for the counter-tensor add of delta propagation.

The letter-sum hot path needs no compiled kernel: once a bank has a sign
table, :mod:`repro.core.atomic` answers cover sums by gathering from
coordinate-indexed tables, which NumPy does at memory speed.  What is left
here is the fused out-of-place tensor add, compiled with `numba
<https://numba.pydata.org>`_ when it is importable.

numba is strictly optional.  When it is missing (or disabled via the
``REPRO_DISABLE_NUMBA`` environment variable, which CI uses to pin the
fallback) the pure NumPy route runs.  Both routes are bit-identical:
counters are exact integers far below 2^53, and float64 addition of exact
integers is exact.
"""

from __future__ import annotations

import os

import numpy as np


def _load_numba():
    """Import numba unless absent or explicitly disabled."""
    if os.environ.get("REPRO_DISABLE_NUMBA"):
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba


_numba = _load_numba()

#: Whether the compiled fast path is available in this process.
HAVE_NUMBA = _numba is not None


if HAVE_NUMBA:

    @_numba.njit(cache=True, parallel=True)
    def _tensor_add_kernel(base, delta, out):  # pragma: no cover - compiled
        for row in _numba.prange(base.shape[0]):
            for col in range(base.shape[1]):
                out[row, col] = base[row, col] + delta[row, col]


def tensor_add(base: np.ndarray, delta: np.ndarray, out: np.ndarray) -> None:
    """Out-of-place counter-tensor addition: ``out[:] = base + delta``.

    The delta-propagation fast path refreshes a cached merged view by adding
    a compact delta tensor to the cached counters in a *single* fused pass —
    neither input is mutated, so in-flight estimator runs reading the cached
    view are never torn.  Elementwise float64 addition of exact integers is
    exact in any path, so the compiled and NumPy variants are bit-identical
    (and both equal a from-scratch shard re-merge, by linearity).
    """
    if HAVE_NUMBA and base.ndim == 2 and base.flags.c_contiguous \
            and delta.flags.c_contiguous and out.flags.c_contiguous:
        _tensor_add_kernel(base, delta, out)
        return
    np.add(base, delta, out=out)
