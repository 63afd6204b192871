"""Test helpers: closed-form expectations of sketch estimators.

The estimator random variable Z of every join estimator is a linear
combination of products ``X_w * Y_w'`` of word counters.  Because the xi
variables are pairwise independent with ``E[xi_a xi_b] = [a == b]``, the
expectation of such a product is

    E[X_w * Y_w'] = sum over dyadic cells  f_w(cell) * g_w'(cell)

where ``f_w`` / ``g_w'`` are the (multiplicity-weighted) cover counts of the
two datasets.  These helpers compute that expectation exactly, which lets
the tests verify the *mathematics* of every estimator (covers, combination
coefficients, endpoint handling) without any sampling noise.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.atomic import Letter, SketchBank, Word, letter_covers
from repro.core.domain import Domain
from repro.core import hashing
from repro.core.hashing import FourWiseFamilyBank
from repro.geometry.boxset import BoxSet


#: The limit each cover-sum path is selected by: the walk over directly
#: hashed signs, the walk over the sign table, and (``None``) the gathers
#: from the tables derived from it.  Run in this order on one bank: a
#: family's sign table, once built, stays.
PATHS = ("_TABLE_BYTE_LIMIT", "_DERIVED_BYTE_LIMIT", None)


@contextmanager
def on_path(limit, *banks):
    """Select a cover-sum path: ``limit`` is 0 while the block runs.  The
    hashed walk checks that no family of ``banks`` has a table yet."""
    if limit is None:
        yield
        return
    with mock.patch.object(FourWiseFamilyBank, limit, 0):
        if limit == "_TABLE_BYTE_LIMIT":
            if any((xi.universe_size, xi.coefficients.tobytes()) in hashing._FAMILIES
                   for bank in banks for xi in bank.xi_banks):
                gc.collect()   # a dead bank in a cycle may still hold the family
            assert all(xi.resolve_table() is None
                       for bank in banks for xi in bank.xi_banks)
        yield


def scalar_cover(dyadic, letter: Letter, lo: int, hi: int) -> list[int]:
    """The node ids ``letter`` reads of ``[lo, hi]``, from the scalar
    ``cover`` / ``point_cover`` / ``leaf_id`` walks: a reference of its own,
    never the letter table the kernels read."""
    if letter is Letter.INTERVAL:
        return dyadic.cover(lo, hi)
    if letter is Letter.ENDPOINTS:
        return dyadic.point_cover(lo) + dyadic.point_cover(hi)
    if letter is Letter.LOWER_POINT:
        return dyadic.point_cover(lo)
    if letter is Letter.UPPER_POINT:
        return dyadic.point_cover(hi)
    if letter is Letter.LOWER_LEAF:
        return [dyadic.leaf_id(lo)]
    return [dyadic.leaf_id(hi)]


def identity_bands(domain: Domain) -> tuple[tuple[int, ...], ...]:
    """The level-band map with one band per level: the level-split layout."""
    return tuple(tuple(range(dyadic.num_levels)) for dyadic in domain.dyadics)


def random_bands(rng: np.random.Generator, domain: Domain
                 ) -> tuple[tuple[int, ...], ...]:
    """A random monotone level-band map: per dimension, each level steps
    the band up by 0 or 1."""
    return tuple(tuple(np.concatenate(
        [[0], np.cumsum(rng.integers(0, 2, size=dyadic.num_levels - 1))]).tolist())
        for dyadic in domain.dyadics)


def band_starts(bands) -> np.ndarray:
    """The first level of each band of one dimension's map."""
    return np.flatnonzero(np.diff(bands, prepend=-1))


def pooled(split: SketchBank, bank: SketchBank) -> np.ndarray:
    """An identity-split bank's counter tensor summed within the bands of
    ``bank`` (``None``: over every level)."""
    levels = [dyadic.num_levels for dyadic in split.domain.dyadics]
    cells = split.counter_tensor.reshape(split.num_instances, len(split.words), *levels)
    for dim, count in enumerate(levels):
        bands = (0,) * count if bank.bands is None else bank.bands[dim]
        cells = np.add.reduceat(cells, band_starts(bands), axis=2 + dim)
    return cells.reshape(split.num_instances, -1)


def scalar_letter_sums(bank: SketchBank, dim: int, letter: Letter,
                       lows, highs, *, bands=None) -> np.ndarray:
    """``(instances, boxes)`` letter sums from :func:`scalar_cover` and
    directly hashed signs — no table, no batched walk, no shared kernel.
    ``bands``, a band per level of ``dim``: ``(instances, boxes, bands)``,
    each node's sign in its level's band."""
    dyadic = bank.domain.dyadic(dim)
    # A separate, never-warm bank: signs come from the polynomial itself.
    xi = FourWiseFamilyBank.from_coefficients(
        bank.xi_banks[dim].coefficients, dyadic.num_nodes)

    def sign_sum(cover) -> np.ndarray:
        hashed = xi._hash(np.asarray(cover, dtype=np.uint64), xi.coefficients)
        signs = 1.0 - 2.0 * (hashed & np.uint64(1)).astype(np.float64)
        if bands is None:
            return signs.sum(axis=1)
        banded = np.zeros((bank.num_instances, max(bands) + 1))
        for node, column in zip(cover, signs.T):
            banded[:, bands[dyadic.interval_of(node).level]] += column
        return banded

    columns = [sign_sum(scalar_cover(dyadic, letter, int(lo), int(hi)))
               for lo, hi in zip(lows, highs)]
    if not columns:
        return np.zeros((bank.num_instances, 0) + (
            () if bands is None else (max(bands) + 1,)))
    return np.stack(columns, axis=1)


def cover_counts(boxes: BoxSet, domain: Domain, word: Word) -> dict[tuple[int, ...], float]:
    """Multiplicity-weighted dyadic-cell counts ``f_w`` for a dataset."""
    counts: dict[tuple[int, ...], float] = defaultdict(float)
    if len(boxes) == 0:
        return counts
    per_dim = []
    offsets = []
    for dim, letter in enumerate(word):
        ids, lengths = letter_covers(domain.dyadic(dim), letter, boxes.lows[:, dim],
                                     boxes.highs[:, dim])
        per_dim.append(ids)
        offsets.append(np.concatenate([[0], np.cumsum(lengths)]))
    for box in range(len(boxes)):
        cells = [()]
        for dim in range(domain.dimension):
            ids = per_dim[dim][offsets[dim][box]:offsets[dim][box + 1]]
            cells = [cell + (int(i),) for cell in cells for i in ids]
        for cell in cells:
            counts[cell] += 1.0
    return counts


def expected_counter_product(left: BoxSet, right: BoxSet, domain: Domain,
                             left_word: Word, right_word: Word) -> float:
    """Exact ``E[X_{left_word} * Y_{right_word}]`` for the two datasets."""
    f = cover_counts(left, domain, left_word)
    g = cover_counts(right, domain, right_word)
    smaller, larger = (f, g) if len(f) <= len(g) else (g, f)
    return float(sum(value * larger.get(cell, 0.0) for cell, value in smaller.items()))


def expected_estimator_value(estimator, left: BoxSet, right: BoxSet) -> float:
    """Exact E[Z] of a :class:`PairedSketchJoinEstimator` for given inputs.

    The inputs are the *original* (untransformed) datasets; the helper
    applies the estimator's own coordinate preparation so endpoint
    transformations are exercised exactly as in production.
    """
    prepared_left, left_overrides = estimator._prepare("left", left)
    prepared_right, right_overrides = estimator._prepare("right", right)
    domain = estimator.side_bank("left").domain

    def select(letter: Letter, base: BoxSet, overrides) -> BoxSet:
        if overrides is not None and letter in overrides:
            return overrides[letter]
        return base

    total = 0.0
    for (left_word, right_word), coefficient in estimator._combos.items():
        left_sources = {}
        right_sources = {}
        for letter in set(left_word):
            left_sources[letter] = select(letter, prepared_left, left_overrides)
        for letter in set(right_word):
            right_sources[letter] = select(letter, prepared_right, right_overrides)
        # Every letter of a word may, in principle, use different coordinates;
        # build per-word mixed datasets dimension-wise.
        f = _mixed_cover_counts(left_sources, domain, left_word)
        g = _mixed_cover_counts(right_sources, domain, right_word)
        smaller, larger = (f, g) if len(f) <= len(g) else (g, f)
        total += coefficient * sum(v * larger.get(c, 0.0) for c, v in smaller.items())
    return total


def _mixed_cover_counts(sources: dict[Letter, BoxSet], domain: Domain,
                        word: Word) -> dict[tuple[int, ...], float]:
    counts: dict[tuple[int, ...], float] = defaultdict(float)
    any_source = next(iter(sources.values()))
    count = len(any_source)
    if count == 0:
        return counts
    per_dim = []
    offsets = []
    for dim, letter in enumerate(word):
        boxes = sources[letter]
        ids, lengths = letter_covers(domain.dyadic(dim), letter, boxes.lows[:, dim],
                                     boxes.highs[:, dim])
        per_dim.append(ids)
        offsets.append(np.concatenate([[0], np.cumsum(lengths)]))
    for box in range(count):
        cells = [()]
        for dim in range(domain.dimension):
            ids = per_dim[dim][offsets[dim][box]:offsets[dim][box + 1]]
            cells = [cell + (int(i),) for cell in cells for i in ids]
        for cell in cells:
            counts[cell] += 1.0
    return counts


def assert_same_state(ours, theirs, path: str = "state") -> None:
    """Bit-exact comparison of two ``state_dict`` trees (tensors by value)."""
    if isinstance(ours, dict):
        assert ours.keys() == theirs.keys(), f"{path}: keys differ"
        for key in ours:
            assert_same_state(ours[key], theirs[key], f"{path}/{key}")
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), path
    else:
        assert ours == theirs, f"{path}: {ours!r} != {theirs!r}"
