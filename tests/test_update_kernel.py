"""The sketch update kernel, every counter layout against a scalar reference.

``SketchBank.insert`` contracts each dimension's ``(instances, boxes,
letters x bands)`` rows in one kernel: with one band in every dimension a
word's integer letter rows multiply and sum in int64 (past float64's exact
integers, the fixed float ``(instances, boxes)`` order), and with any other
level-band map an exact float matmul chain yields every cell.  Each layout
must leave the counters a scalar reference leaves — cover walks and hashes
per box, nothing shared with the kernels: for each word, the sum over the
boxes of the product of its per-dimension letter sums, split by band where
banded — for every letter, every estimator family, inserts and deletes,
per-letter coordinate overrides, every chunking, every dimension, every
band map and every cover-sum path (``helpers.PATHS``).  A banded bank's
cells are the identity-split bank's cells summed within its bands.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.core.dyadic import DyadicDomain
from repro.errors import DomainError, SketchConfigError
from repro.geometry.boxset import BoxSet
from repro.service.specs import FAMILIES, EstimatorSpec, apply_update

from tests.helpers import (
    PATHS, identity_bands, on_path, pooled, random_bands, scalar_cover,
    scalar_letter_sums)
from tests.test_property_batch_equivalence import FAMILY_CASES, _boxes

INSTANCES = 5
LETTERS = list(Letter)
#: (size, max_level) per dimension: unrestricted, restricted (covers span
#: whole blocks, int32 rows) and standard sketches (max_level 0).
AXES = [(2, None), (16, None), (16, 1), (64, 3), (32, 0)]


@contextmanager
def float_kernel():
    """Force every one-band update through the float fallback."""
    with mock.patch.object(SketchBank, "_EXACT_INTEGER_LIMIT", 0):
        yield


def domain_of(axes) -> Domain:
    return Domain(tuple(size for size, _ in axes),
                  max_levels=tuple(level for _, level in axes))


def random_boxes(rng, count: int, domain: Domain) -> BoxSet:
    first = np.column_stack([rng.integers(0, size, size=count)
                             for size in domain.sizes])
    second = np.column_stack([rng.integers(0, size, size=count)
                              for size in domain.sizes])
    return BoxSet(np.minimum(first, second), np.maximum(first, second))


def bands_of(draw, domain: Domain, kind: str):
    """``one`` band (None), the ``identity`` or a ``random`` map."""
    if kind == "one":
        return None
    if kind == "identity":
        return identity_bands(domain)
    return random_bands(np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1))),
                        domain)


def companion(bank: SketchBank, bands) -> SketchBank:
    """An empty bank over ``bank``'s domain, words and xi families."""
    return SketchBank(bank.domain, bank.words, bank.num_instances,
                      xi_banks=bank.xi_banks, bands=bands)


def scalar_counters(bank: SketchBank, updates) -> np.ndarray:
    """The counter tensor ``updates`` — ``(boxes, weight, letter_boxes)``
    triples — must leave, from per-box scalar walks: per box the outer
    product of its per-dimension band sums (one band: the whole sums)."""
    cells = int(np.prod(bank.levels))
    counters = np.zeros((bank.num_instances, len(bank.words) * cells))
    for boxes, weight, overrides in updates:
        for index, word in enumerate(bank.words):
            term = np.ones((bank.num_instances, len(boxes), 1))
            for dim, letter in enumerate(word):
                source = (overrides or {}).get(letter, boxes)
                sums = scalar_letter_sums(
                    bank, dim, letter, source.lows[:, dim], source.highs[:, dim],
                    bands=None if bank.bands is None else bank.bands[dim])
                term = (term[:, :, :, None] * sums.reshape(
                    bank.num_instances, len(boxes), 1, bank.levels[dim])).reshape(
                        bank.num_instances, len(boxes), term.shape[2] * bank.levels[dim])
            counters[:, index * cells:(index + 1) * cells] += \
                weight * term.sum(axis=1)
    return counters


@st.composite
def bank_cases(draw):
    """``(domain, words, bands)``: any letters, dimension and band map."""
    dimension = draw(st.sampled_from([1, 2, 4]))
    axes = [draw(st.sampled_from(AXES)) for _ in range(dimension)]
    if dimension == 1:
        words = all_words(LETTERS, 1)
    else:
        words = draw(st.lists(
            st.tuples(*[st.sampled_from(LETTERS)] * dimension),
            min_size=1, max_size=8, unique=True))
    domain = domain_of(axes)
    kind = draw(st.sampled_from(["one", "identity", "random"]))
    return domain, words, bands_of(draw, domain, kind)


class TestEveryLayoutAgrees:
    @given(bank_cases(), st.integers(0, 2 ** 31 - 1), st.integers(0, 24),
           st.sampled_from([1.0, -1.0, 3.0, 0.5]), st.sampled_from(PATHS))
    @settings(max_examples=120, deadline=None)
    def test_every_letter_dimension_and_band_map(self, case, seed, count, weight, path):
        domain, words, bands = case
        boxes = random_boxes(np.random.default_rng(seed), count, domain)
        integer, floating = (SketchBank(domain, words, INSTANCES, seed=seed,
                                        bands=bands) for _ in range(2))
        with on_path(path, integer):
            integer.insert(boxes, weight=weight)
            with float_kernel():
                floating.insert(boxes, weight=weight)
        assert np.array_equal(integer.counter_tensor, floating.counter_tensor)
        assert np.array_equal(integer.counter_tensor,
                              scalar_counters(integer, [(boxes, weight, None)]))
        assert integer.num_updates == floating.num_updates == weight * count

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 16),
           st.sets(st.sampled_from(LETTERS), min_size=1), st.sampled_from(PATHS),
           st.sampled_from(["one", "identity", "random"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_letter_boxes_overrides(self, seed, count, overridden, path, kind, data):
        """Extended overlap sketches other coordinates for some letters."""
        domain = domain_of([(16, None), (64, 3)])
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, count, domain)
        shared = random_boxes(rng, count, domain)     # one set, several letters
        overrides = {letter: shared if index % 2 else random_boxes(rng, count, domain)
                     for index, letter in enumerate(sorted(overridden))}
        words = all_words(LETTERS, 2)
        integer = SketchBank(domain, words, INSTANCES, seed=seed,
                             bands=bands_of(data.draw, domain, kind))
        floating = integer.companion()
        with on_path(path, integer):
            integer.insert(boxes, letter_boxes=overrides)
            integer.insert(boxes[:1], weight=-1.0, letter_boxes={
                letter: source[:1] for letter, source in overrides.items()})
            with float_kernel():
                floating.insert(boxes, letter_boxes=overrides)
                floating.insert(boxes[:1], weight=-1.0, letter_boxes={
                    letter: source[:1] for letter, source in overrides.items()})
        assert np.array_equal(integer.counter_tensor, floating.counter_tensor)
        assert np.array_equal(integer.counter_tensor, scalar_counters(integer, [
            (boxes, 1.0, overrides),
            (boxes[:1], -1.0, {l: s[:1] for l, s in overrides.items()})]))


class TestEveryFamily:
    """All eight estimator families, through their own coordinate
    preparation: every ``SketchBank.insert`` a family issues is replayed
    through the scalar reference, and into an identity-split and a
    randomly banded bank over the same xi families — the 4-D containment
    bank, the leaf letters of the paired joins and the per-letter
    overrides of extended overlap included."""

    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    @given(seed=st.integers(0, 2 ** 31 - 1), count=st.integers(1, 16))
    @settings(max_examples=12, deadline=None)
    def test_inserts_and_deletes(self, family, seed, count):
        assert set(FAMILY_CASES) == set(FAMILIES)
        sizes, sides, options = FAMILY_CASES[family]
        spec = EstimatorSpec.create(family, sizes, INSTANCES, seed=seed, **options)
        rng = np.random.default_rng(seed)
        degenerate = any(side.points for side in spec.info.estimator.SIDES)
        updates = []
        for side in sides:
            boxes = _boxes(rng, count, sizes, degenerate=degenerate)
            updates.append((side, "insert", boxes))
            updates.append((side, "delete", boxes[::3]))

        issued: dict[int, tuple[SketchBank, list]] = {}
        insert = SketchBank.insert

        def recording_insert(bank, boxes, *, weight=1.0, letter_boxes=None):
            issued.setdefault(id(bank), (bank, []))[1].append(
                (boxes, weight, letter_boxes))
            return insert(bank, boxes, weight=weight, letter_boxes=letter_boxes)

        integer = spec.build()
        with mock.patch.object(SketchBank, "insert", recording_insert):
            for side, kind, boxes in updates:
                apply_update(spec, integer, side, kind, boxes)
        floating = spec.build()
        with float_kernel():
            for side, kind, boxes in updates:
                apply_update(spec, floating, side, kind, boxes)

        assert len(issued) >= 1
        for bank, calls in issued.values():
            assert np.array_equal(bank.counter_tensor, scalar_counters(bank, calls))
            split = companion(bank, identity_bands(bank.domain))
            banded = companion(bank, random_bands(rng, bank.domain))
            for boxes, weight, overrides in calls:
                for replay in (split, banded):
                    replay.insert(boxes, weight=weight, letter_boxes=overrides)
            if split.bands != bank.bands:
                assert np.array_equal(split.counter_tensor, scalar_counters(split, calls))
                assert np.array_equal(pooled(split, bank), bank.counter_tensor)
            assert np.array_equal(pooled(split, banded), banded.counter_tensor)
        assert_same_arrays(integer.state_dict(),
                           floating.state_dict())


def assert_same_arrays(ours, theirs) -> None:
    if isinstance(ours, dict):
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert_same_arrays(ours[key], theirs[key])
    elif isinstance(ours, np.ndarray):
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs


class TestChunking:
    WORDS = all_words([Letter.INTERVAL, Letter.ENDPOINTS, Letter.LOWER_LEAF], 2)

    def chunked_bank(self, monkeypatch, domain, chunk: int, bands, seed: int = 3):
        """A bank whose ``_chunk_size()`` is exactly ``chunk`` boxes."""
        bank = SketchBank(domain, self.WORDS, INSTANCES, seed=seed, bands=bands)
        per_box = SketchBank._CHUNK_ELEMENT_BUDGET // bank._chunk_size()
        monkeypatch.setattr(SketchBank, "_CHUNK_ELEMENT_BUDGET", per_box * chunk)
        assert bank._chunk_size() == chunk
        return bank

    @pytest.mark.parametrize("extra", [-1, 0, 1, 8])
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("bands", [None, ((0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3)),
                                       ((0, 0, 0, 1, 1, 2, 2), (0, 0, 0, 0))])
    def test_one_box_either_side_of_a_chunk_boundary(self, monkeypatch, extra, path,
                                                     bands):
        domain = domain_of([(64, None), (64, 3)])
        chunk = 7
        bank = self.chunked_bank(monkeypatch, domain, chunk, bands)
        boxes = random_boxes(np.random.default_rng(9), chunk + extra, domain)
        chunks = []
        insert_chunk = SketchBank._insert_chunk
        monkeypatch.setattr(
            SketchBank, "_insert_chunk",
            lambda self, sources, start, stop, weight: (
                chunks.append((start, stop)),
                insert_chunk(self, sources, start, stop, weight))[1])
        with on_path(path, bank):
            bank.insert(boxes)
        assert chunks == [(start, min(start + chunk, len(boxes)))
                          for start in range(0, len(boxes), chunk)]
        assert np.array_equal(bank.counter_tensor,
                              scalar_counters(bank, [(boxes, 1.0, None)]))


class TestExactnessGuard:
    DOMAIN = domain_of([(64, 3), (16, None)])
    WORDS = all_words([Letter.INTERVAL, Letter.UPPER_POINT], 2)

    def test_small_products_stay_in_integers(self, monkeypatch):
        used = []
        kernel = SketchBank._float_totals
        monkeypatch.setattr(SketchBank, "_float_totals", lambda self, *args: (
            used.append("_float_totals"), kernel(self, *args))[1])
        boxes = random_boxes(np.random.default_rng(1), 30, self.DOMAIN)
        bank = SketchBank(self.DOMAIN, self.WORDS, INSTANCES, seed=2)
        bank.insert(boxes)
        assert used == []
        # A bound past 2^53 / boxes: the same insert (one chunk, as before:
        # the chunk size reads the bound too) falls back to floats and
        # leaves identical counters.
        monkeypatch.setattr(SketchBank, "_chunk_size",
                            lambda self, _chunk=bank._chunk_size(): _chunk)
        monkeypatch.setattr(DyadicDomain, "cover_sum_bound",
                            lambda self: 1 << 27)
        fallback = bank.companion()
        fallback.insert(boxes)
        assert used == ["_float_totals"]
        assert np.array_equal(bank.counter_tensor, fallback.counter_tensor)

    def test_the_guard_is_bound_times_boxes(self):
        dyadic = DyadicDomain(1 << 20, max_level=0)
        assert dyadic.cover_sum_bound() == 2 + (1 << 20)
        assert DyadicDomain(1024).cover_sum_bound() == 2 * 11 + 1
        # Standard sketches over three 2^20 axes can exceed float64's
        # exact integers in a single product; a 2-D 1024 bank never does.
        assert dyadic.cover_sum_bound() ** 3 >= SketchBank._EXACT_INTEGER_LIMIT
        assert 23 ** 2 * (1 << 23) < SketchBank._EXACT_INTEGER_LIMIT

    @pytest.mark.parametrize("max_level", [0, 2, None])
    def test_no_band_sum_exceeds_the_row_bound(self, max_level):
        """Per level a letter reads at most two nodes below the top and
        ``size >> max_level`` on it; a band adds its levels' bounds, and
        one band is the whole cover's bound."""
        domain = Domain((32,), max_levels=(max_level,))
        dyadic = domain.dyadic(0)
        top = dyadic.num_levels - 1
        banks = [SketchBank(domain, all_words(LETTERS, 1), 1, bands=bands)
                 for bands in (None, identity_bands(domain),
                               (tuple(min(level, 1) for level in range(top + 1)),),
                               (tuple(int(0 < level == top) for level in range(top + 1)),))]
        for lo in range(32):
            for hi in range(lo, 32):
                for letter in LETTERS:
                    levels = [dyadic.interval_of(node).level
                              for node in scalar_cover(dyadic, letter, lo, hi)]
                    for bank in banks:
                        bands = bank.bands[0] if bank.bands else (0,) * dyadic.num_levels
                        per_band = np.bincount([bands[level] for level in levels],
                                               minlength=bank.levels[0])
                        assert per_band.max() <= bank._row_bound(0)

    @pytest.mark.parametrize("max_level", [0, 2, None])
    def test_no_letter_sum_exceeds_the_bound(self, max_level):
        dyadic = DyadicDomain(32, max_level=max_level)
        bound = dyadic.cover_sum_bound()
        for lo in range(32):
            assert 2 * len(dyadic.point_cover(lo)) <= bound
            for hi in range(lo, 32):
                assert len(dyadic.cover(lo, hi)) <= bound


class TestValidation:
    def test_each_distinct_source_is_validated_once(self, monkeypatch):
        domain = domain_of([(16, None), (16, None)])
        bank = SketchBank(domain, all_words(LETTERS, 2), INSTANCES, seed=1)
        rng = np.random.default_rng(0)
        boxes, shared, own = (random_boxes(rng, 6, domain) for _ in range(3))
        seen = []
        validate = Domain.validate_boxes
        monkeypatch.setattr(
            Domain, "validate_boxes",
            lambda self, source, *, what="boxes": (
                seen.append((source, what)), validate(self, source, what=what))[1])
        bank.insert(boxes)
        assert [(source is boxes, what) for source, what in seen] == [(True, "boxes")]
        del seen[:]
        bank.insert(boxes, letter_boxes={
            Letter.LOWER_LEAF: shared, Letter.UPPER_LEAF: shared,
            Letter.INTERVAL: own})
        assert [what for _, what in seen] == [
            "boxes", "boxes for letter l", "boxes for letter I"]
        assert [source for source, _ in seen][1] is shared

    def test_bad_boxes_and_bad_overrides_are_rejected(self):
        domain = domain_of([(16, None)])
        bank = SketchBank(domain, all_words(LETTERS, 1), INSTANCES, seed=1)
        good = BoxSet(np.array([[1]]), np.array([[5]]))
        outside = BoxSet(np.array([[1]]), np.array([[16]]))
        with pytest.raises(DomainError, match="^boxes contain"):
            bank.insert(outside)
        with pytest.raises(DomainError, match="^boxes for letter E contain"):
            bank.insert(good, letter_boxes={Letter.ENDPOINTS: outside})
        with pytest.raises(SketchConfigError, match="same cardinality"):
            bank.insert(good, letter_boxes={
                Letter.ENDPOINTS: BoxSet(np.array([[1], [2]]), np.array([[3], [4]]))})
        assert not bank.counter_tensor.any() and bank.num_updates == 0
