"""Level-split range counters: the kernel against the one-cell layout, and
every estimate path against every other.

A level-split bank keeps one cell per (word, per-dimension level tuple);
summed over the levels its cells are the one-cell counters.  Every cell and
every per-level query sum is an integer, so each estimate path — the scalar
``estimate``, ``estimate_batch``, the service's ``estimate_multi`` and a
router's ``reduce_partials`` over worker states — must return the same
floats bit for bit.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partial import reduce_partials
from repro.core.atomic import Letter, SketchBank
from repro.core.domain import Domain
from repro.core.program import LetterSumRef, _family_key
from repro.core.range_query import RangeQueryEstimator
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, EstimatorSpec

#: Per dimension ``(size, max_level)``: the full tree, a cap, a deep cap
#: whose top level holds many blocks, and a size that pads.
AXES = [(16, None), (64, 3), (256, 1), (100, 4)]


def random_boxes(rng, count: int, sizes, *, strict: bool = False) -> BoxSet:
    """Random boxes; ``strict`` ones are no points (the endpoint transform
    shrinks a point to an empty interval)."""
    first = np.column_stack([rng.integers(0, size, count) for size in sizes])
    second = np.column_stack([rng.integers(0, size, count) for size in sizes])
    lows, highs = np.minimum(first, second), np.maximum(first, second)
    if strict:
        lows = np.minimum(lows, np.array(sizes) - 2)
        highs = np.maximum(highs, lows + 1)
    return BoxSet(lows, highs)


@st.composite
def cases(draw):
    axes = draw(st.lists(st.sampled_from(AXES), min_size=1, max_size=2))
    return (Domain(tuple(size for size, _ in axes),
                   max_levels=tuple(level for _, level in axes)),
            draw(st.integers(0, 2 ** 31 - 1)), draw(st.integers(1, 40)),
            draw(st.booleans()), draw(st.booleans()))


class TestKernel:
    @given(cases())
    @settings(max_examples=40, deadline=None)
    def test_cells_sum_to_the_one_cell_counters(self, case):
        """Inserts then deletes, strict on and off, tables pre-paid or built
        by the first insert."""
        domain, seed, count, strict, warm = case
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, count, domain.requested_sizes, strict=strict)
        split, one_cell = (RangeQueryEstimator(domain, 6, seed=seed, strict=strict,
                                               split_levels=layout)
                           for layout in (True, False))
        if warm:
            split.prepay_tables()
        for estimator in (split, one_cell):
            estimator.insert(boxes)
            estimator.delete(boxes[::3])
        assert split.bank.counter_tensor.shape[1] \
            == len(split.bank.words) * int(np.prod(split.bank.levels))
        for word in one_cell.bank.words:
            assert np.array_equal(split.bank.counter(word), one_cell.bank.counter(word))
        # Query side: the per-level sums add up to the letter sums.
        query = random_boxes(rng, 3, domain.requested_sizes)
        sketched, _ = split.check_queries(query)
        for dim in range(domain.dimension):
            for letter in (Letter.INTERVAL, Letter.UPPER_POINT):
                lows, highs = sketched.lows[:, dim], sketched.highs[:, dim]
                assert np.array_equal(
                    split.bank.level_sums(dim, letter, lows, highs).sum(axis=2),
                    one_cell.bank.letter_sums(dim, letter, lows, highs))


class TestEveryPathAgrees:
    SIZES = (128, 128)

    @pytest.fixture()
    def fed(self):
        """A split spec, its data split over two 'workers', and queries."""
        spec = EstimatorSpec.create("range", self.SIZES, 18, seed=5)
        assert spec.split_levels
        rng = np.random.default_rng(1)
        halves = [random_boxes(rng, 150, self.SIZES) for _ in range(2)]
        queries = random_boxes(rng, 9, self.SIZES)
        # Plus queries one coordinate wide in x, and in both dimensions.
        lows = np.vstack([queries.lows, [[40, 10], [70, 70]]])
        highs = np.vstack([queries.highs, [[40, 90], [70, 70]]])
        return spec, halves, BoxSet(lows, highs)

    def test_a_query_reads_u_letters_up_to_v_minus_one(self, fed):
        """Where a counter word reads U the query range ends at ``v - 1``,
        so a box ending at ``v`` is counted once; where that leaves the
        range empty (``u == v``) the column's letter sums read zero."""
        spec, halves, queries = fed
        estimator = spec.build()
        estimator.insert(halves[0])
        [program] = estimator.lower(queries)
        assert program.columns == len(queries)
        assert len(program.terms) == 4
        for term in program.terms:
            word = term.counters[0].word
            for dim, ref in enumerate(term.letter_sums):
                upper = word[dim] is Letter.UPPER_POINT
                assert ref.letter is (Letter.INTERVAL if upper else Letter.UPPER_POINT)
                assert np.array_equal(ref.low, queries.lows[:, dim])
                assert np.array_equal(ref.high, queries.highs[:, dim] - upper)
        # The two last queries are one coordinate wide: in x, in both.
        empty = [[ref.low[-2:] > ref.high[-2:] for ref in term.letter_sums]
                 for term in program.terms]
        assert sum(map(np.any, empty)) == 3

    def test_scalar_batch_multi_and_routed_reduce(self, fed):
        spec, halves, queries = fed
        service = EstimationService(num_shards=3)
        service.register("rq", spec)
        workers = []
        for half in halves:
            service.ingest("rq", half, side="data")
            worker = EstimationService(num_shards=2)
            worker.register("rq", spec)
            worker.ingest("rq", half, side="data")
            workers.append(worker.merged_view("rq").state_dict())
        rows = [queries[index:index + 1] for index in range(len(queries))]
        scalar = [service.estimate("rq", row) for row in rows]
        paths = {
            "batch": service.estimate_batch("rq", queries),
            "multi": service.estimate_multi([("rq", row) for row in rows]),
            "routed": [reduce_partials(spec, workers, row) for row in rows],
        }
        for label, results in paths.items():
            for got, want in zip(results, scalar):
                assert got.estimate == want.estimate, label
                assert np.array_equal(got.instance_values, want.instance_values), label


class TestLevelSums:
    def test_a_query_column_is_no_larger_than_a_one_cell_float_vector(self):
        """Per-level sums are integers: ``(instances, levels)`` int8 per
        query on the benchmark's shape — the bytes the one-cell layout's
        float64 ``(instances,)`` vector took, not eight times them."""
        spec = EstimatorSpec.create("range", (1024, 1024), 256, seed=2)
        estimator = spec.build()
        estimator.insert(random_boxes(np.random.default_rng(0), 50, (1024, 1024)))
        queries = random_boxes(np.random.default_rng(1), 4, (1024, 1024))
        for letter in (Letter.INTERVAL, Letter.UPPER_POINT):
            sums = estimator.bank.level_sums(0, letter, queries.lows[:, 0],
                                             queries.highs[:, 0])
            assert sums.dtype == np.int8
            assert sums.shape == (256, 4, 8)
        # A one-cell bank over the very same xi families never shares them.
        split = estimator.bank
        one_cell = SketchBank(split.domain, split.words, 256,
                              xi_banks=split.xi_banks, split_levels=False)
        interval = (Letter.INTERVAL, np.array([0]), np.array([9]))
        assert _family_key(LetterSumRef(split, 0, *interval)) != \
            _family_key(LetterSumRef(one_cell, 0, *interval))
