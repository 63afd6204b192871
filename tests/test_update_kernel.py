"""The sketch update kernel: integer rows ≡ float (instances, boxes) ≡ scalar.

``SketchBank.insert`` multiplies ``(boxes, instances)`` integer letter rows
and sums them in int64; past float64's exact integers it falls back to the
float ``(instances, boxes)`` kernel.  Both must leave the counters a scalar
reference leaves — cover walks and hashes per box, nothing shared with the
kernels — for every letter, every estimator family, inserts and deletes,
per-letter coordinate overrides, every chunking, both counter layouts and
every cover-sum path (``helpers.PATHS``).
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

from tests.helpers import PATHS, on_path, scalar_letter_sums
from tests.test_property_batch_equivalence import FAMILY_CASES, _boxes

INSTANCES = 5
LETTERS = list(Letter)
#: (size, max_level) per dimension: unrestricted, restricted (covers span
#: whole blocks, int32 rows) and standard sketches (max_level 0).
AXES = [(2, None), (16, None), (16, 1), (64, 3), (32, 0)]


@contextmanager
def float_kernel():
    """Force every update through the float fallback."""
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


def scalar_counters(bank: SketchBank, updates) -> np.ndarray:
    """The counter tensor ``updates`` — ``(boxes, weight, letter_boxes)``
    triples — must leave, from per-box scalar walks (a level-split bank:
    per box the outer product of its per-level sums)."""
    cells = int(np.prod(bank.levels))
    counters = np.zeros((bank.num_instances, len(bank.words) * cells))
    for boxes, weight, overrides in updates:
        for index, word in enumerate(bank.words):
            term = np.ones((bank.num_instances, len(boxes), 1))
            for dim, letter in enumerate(word):
                source = (overrides or {}).get(letter, boxes)
                sums = scalar_letter_sums(
                    bank, dim, letter, source.lows[:, dim], source.highs[:, dim],
                    by_level=bank.split_levels)
                term = (term[:, :, :, None] * sums.reshape(
                    bank.num_instances, len(boxes), 1, bank.levels[dim])).reshape(
                        bank.num_instances, len(boxes), term.shape[2] * bank.levels[dim])
            counters[:, index * cells:(index + 1) * cells] += \
                weight * term.sum(axis=1)
    return counters


@st.composite
def bank_cases(draw):
    """``(domain, words, split)``: a level-split bank is 1-D or 2-D and
    sums no leaf letters."""
    dimension = draw(st.sampled_from([1, 2, 4]))
    split = dimension <= 2 and draw(st.booleans())
    letters = [letter for letter in LETTERS if not split
               or letter not in (Letter.LOWER_LEAF, Letter.UPPER_LEAF)]
    axes = [draw(st.sampled_from(AXES)) for _ in range(dimension)]
    if dimension == 1:
        words = all_words(letters, 1)
    else:
        words = draw(st.lists(
            st.tuples(*[st.sampled_from(letters)] * dimension),
            min_size=1, max_size=8, unique=True))
    return domain_of(axes), words, split


class TestThreeKernelsAgree:
    @given(bank_cases(), st.integers(0, 2 ** 31 - 1), st.integers(0, 24),
           st.sampled_from([1.0, -1.0, 3.0, 0.5]), st.sampled_from(PATHS))
    @settings(max_examples=120, deadline=None)
    def test_every_letter_and_dimension(self, case, seed, count, weight, path):
        domain, words, split = case
        boxes = random_boxes(np.random.default_rng(seed), count, domain)
        integer, floating = (SketchBank(domain, words, INSTANCES, seed=seed,
                                        split_levels=split) for _ in range(2))
        with on_path(path, integer):
            integer.insert(boxes, weight=weight)
            with float_kernel():
                floating.insert(boxes, weight=weight)
        assert np.array_equal(integer.counter_tensor, floating.counter_tensor)
        assert np.array_equal(integer.counter_tensor,
                              scalar_counters(integer, [(boxes, weight, None)]))
        assert integer.num_updates == floating.num_updates == weight * count

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 16),
           st.sets(st.sampled_from(LETTERS), min_size=1), st.sampled_from(PATHS))
    @settings(max_examples=60, deadline=None)
    def test_letter_boxes_overrides(self, seed, count, overridden, path):
        """Extended overlap sketches other coordinates for some letters."""
        domain = domain_of([(16, None), (64, 3)])
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, count, domain)
        shared = random_boxes(rng, count, domain)     # one set, several letters
        overrides = {letter: shared if index % 2 else random_boxes(rng, count, domain)
                     for index, letter in enumerate(sorted(overridden))}
        words = all_words(LETTERS, 2)
        integer = SketchBank(domain, words, INSTANCES, seed=seed)
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
    through the scalar reference."""

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

    def chunked_bank(self, monkeypatch, domain, chunk: int, seed: int = 3):
        """A bank whose ``_chunk_size()`` is exactly ``chunk`` boxes."""
        bank = SketchBank(domain, self.WORDS, INSTANCES, seed=seed)
        per_box = SketchBank._CHUNK_ELEMENT_BUDGET // bank._chunk_size()
        monkeypatch.setattr(SketchBank, "_CHUNK_ELEMENT_BUDGET", per_box * chunk)
        assert bank._chunk_size() == chunk
        return bank

    @pytest.mark.parametrize("extra", [-1, 0, 1, 8])
    @pytest.mark.parametrize("path", PATHS)
    def test_one_box_either_side_of_a_chunk_boundary(self, monkeypatch, extra, path):
        domain = domain_of([(64, None), (64, 3)])
        chunk = 7
        bank = self.chunked_bank(monkeypatch, domain, chunk)
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

    def test_small_products_take_the_integer_kernel(self, monkeypatch):
        used = []
        for name in ("_integer_totals", "_float_totals"):
            monkeypatch.setattr(
                SketchBank, name,
                lambda self, *args, _name=name, _kernel=getattr(SketchBank, name): (
                    used.append(_name), _kernel(self, *args))[1])
        boxes = random_boxes(np.random.default_rng(1), 30, self.DOMAIN)
        bank = SketchBank(self.DOMAIN, self.WORDS, INSTANCES, seed=2)
        bank.insert(boxes)
        assert used == ["_integer_totals"]
        # A bound past 2^53 / boxes: the same insert (one chunk, as before:
        # the chunk size reads the bound too) falls back to floats and
        # leaves identical counters.
        monkeypatch.setattr(SketchBank, "_chunk_size",
                            lambda self, _chunk=bank._chunk_size(): _chunk)
        monkeypatch.setattr(DyadicDomain, "cover_sum_bound",
                            lambda self: 1 << 27)
        fallback = bank.companion()
        fallback.insert(boxes)
        assert used == ["_integer_totals", "_float_totals"]
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
