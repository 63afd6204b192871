"""Self-join sizes ``SJ(X_w)`` of atomic sketches.

The variance bounds of Sections 4.1.4, 4.2.1 and 6 are expressed in terms
of the self-join sizes of the atomic sketches:

    SJ(X_w) = E[X_w^2] = sum over dyadic cells (delta_1, ..., delta_d) of
              f_w(delta_1, ..., delta_d)^2

where ``f_w`` counts (with multiplicity) how often a dyadic cell appears in
the letter-specific covers of the dataset's objects.  Together with
``SJ(R) = sum_w SJ(X_w)``, these quantities size the sketches for a target
(epsilon, phi) guarantee (Theorems 1-3).

:func:`self_join_size` computes them exactly from the dataset (used by the
Figure 7/8 experiments and by tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.atomic import Letter, Word, all_words, letter_covers
from repro.core.domain import Domain
from repro.errors import DimensionalityError
from repro.geometry.boxset import BoxSet


def self_join_size(boxes: BoxSet, domain: Domain, word: Word) -> float:
    """Exact ``SJ(X_w)`` of the atomic sketch for ``word`` over ``boxes``.

    The computation enumerates, per box, the cross product of the per-
    dimension cover id lists (with multiplicity) and counts how often each
    dyadic cell is hit across the whole dataset.
    """
    word = tuple(word)
    if len(word) != domain.dimension:
        raise DimensionalityError("word dimensionality does not match the domain")
    if boxes.dimension != domain.dimension:
        raise DimensionalityError("boxes dimensionality does not match the domain")
    if len(boxes) == 0:
        return 0.0

    per_dim_ids: list[np.ndarray] = []
    per_dim_lengths: list[np.ndarray] = []
    for dim, letter in enumerate(word):
        ids, lengths = letter_covers(domain.dyadic(dim), letter, boxes.lows[:, dim],
                                     boxes.highs[:, dim])
        per_dim_ids.append(ids)
        per_dim_lengths.append(lengths)

    # Encode dyadic-cell tuples as a single integer key per cell.
    strides = []
    stride = 1
    for dim in reversed(range(domain.dimension)):
        strides.append(stride)
        stride *= domain.dyadic(dim).num_nodes
    strides = list(reversed(strides))

    keys_parts: list[np.ndarray] = []
    offsets = [np.concatenate([[0], np.cumsum(lengths)]) for lengths in per_dim_lengths]
    for box in range(len(boxes)):
        cell_keys = np.zeros(1, dtype=np.int64)
        for dim in range(domain.dimension):
            ids = per_dim_ids[dim][offsets[dim][box]:offsets[dim][box + 1]]
            cell_keys = (cell_keys[:, None] + ids[None, :] * strides[dim]).reshape(-1)
        keys_parts.append(cell_keys)
    keys = np.concatenate(keys_parts)
    _, counts = np.unique(keys, return_counts=True)
    return float(np.sum(counts.astype(np.float64) ** 2))


def dataset_self_join_size(boxes: BoxSet, domain: Domain,
                           words: Sequence[Word] | None = None) -> float:
    """``SJ(R) = sum_w SJ(X_w)`` over the standard join words ``{I, E}^d``.

    A different word set can be supplied for the extended estimators.
    """
    if words is None:
        words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], domain.dimension)
    return float(sum(self_join_size(boxes, domain, word) for word in words))

