"""Level-split range counters: the kernel against the one-cell layout, and
every estimate path against every other.

A level-split bank keeps one cell per (word, per-dimension level tuple);
summed over the levels its cells are the one-cell counters.  Every cell and
every per-level query sum is an integer, so each estimate path — the scalar
``estimate``, ``estimate_batch``, the service's ``estimate_multi`` and a
router's ``reduce_partials`` over worker states — must return the same
floats bit for bit.
"""


from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partial import reduce_partials
from repro.core.atomic import Letter, SketchBank
from repro.core.domain import Domain
from repro.core.program import (
    LetterSumRef,
    ProgramExecutor,
    _family_key,
    default_executor,
)
from repro.core.range_query import RangeQueryEstimator
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, EstimatorSpec, synthetic_boxes

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
            estimator.update("data", boxes)
            estimator.update("data", boxes[::3], -1.0)
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
        estimator.update("data", halves[0])
        [program] = estimator.lower(queries)
        assert program.columns == len(queries)
        assert len(program.terms) == 4
        # The last column is the control: the whole domain, E[Z] = N.
        assert program.width == len(queries) + 1
        assert program.control == estimator.count == 150
        for term in program.terms:
            word = term.counters[0].word
            for dim, ref in enumerate(term.letter_sums):
                upper = word[dim] is Letter.UPPER_POINT
                assert ref.letter is (Letter.INTERVAL if upper else Letter.UPPER_POINT)
                assert np.array_equal(ref.low[:-1], queries.lows[:, dim])
                assert np.array_equal(ref.high[:-1], queries.highs[:, dim] - upper)
                assert (ref.low[-1], ref.high[-1]) == (0, self.SIZES[dim] - 1 - upper)
        # The two last queries are one coordinate wide: in x, in both.
        empty = [[ref.low[-3:-1] > ref.high[-3:-1] for ref in term.letter_sums]
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
        estimator.update("data", random_boxes(np.random.default_rng(0), 50, (1024, 1024)))
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


class TestControl:
    """A split program's control column: the whole sketch domain, whose
    expectation is the net box count N.  Its error is regressed out of
    every query's instances, row by row; the estimate is the mean of all
    adjusted instances, clipped to ``[0, N]``."""

    SIZES = (256, 256)

    @staticmethod
    def fed(spec, boxes):
        estimator = spec.build()
        estimator.update("data", boxes)
        return estimator

    @staticmethod
    def assert_rows_alone(estimator, queries):
        """Every batch row answers what the query answers on its own."""
        batch = estimator.estimate_batch(queries)
        for index, got in enumerate(batch):
            want = estimator.estimate(queries[index:index + 1])
            assert got.estimate == want.estimate, index
            assert np.array_equal(got.instance_values, want.instance_values), index
            assert np.array_equal(got.group_means, want.group_means), index
        return batch

    def test_a_negative_count_is_clipped(self):
        """50 boxes in the lower half of 1000 x 1000, a point query in the
        empty upper corner: the adjusted mean reads below zero, and the
        count reported is 0.  The result's arrays stay unclipped, and a
        one-cell bank (stored state) answers as it always has."""
        spec = EstimatorSpec.create("range", (1000, 1000), 16, seed=3)
        boxes = synthetic_boxes(Domain((1000, 500)), 50, seed=0)
        corner = BoxSet([[999, 999]], [[999, 999]])
        result = self.fed(spec, boxes).estimate(corner)
        assert result.estimate == 0.0
        assert result.group_means.shape == (1,) and result.group_means[0] < 0
        assert result.group_means[0] == result.instance_values.mean()
        one_cell = self.fed(replace(spec, split_levels=False), boxes).estimate(
            BoxSet([[500, 999]], [[500, 999]]))
        assert one_cell.estimate < 0 and one_cell.group_means.shape == (5,)

    def test_the_whole_domain_answers_the_count(self):
        spec = EstimatorSpec.create("range", self.SIZES, 32, seed=4)
        estimator = self.fed(spec, synthetic_boxes(Domain(self.SIZES), 300, seed=2))
        whole = BoxSet([[0, 0]], [[255, 255]])
        result = estimator.estimate(whole)
        assert 300 - 1e-9 <= result.estimate <= 300
        assert np.allclose(result.instance_values, 300)

    @pytest.mark.parametrize("queries", [11, 12, 13])
    def test_a_batch_longer_than_a_chunk(self, monkeypatch, queries):
        """With 4 columns per chunk: the control rides in a full last chunk
        (11 queries), alone in it (12), or with one query (13)."""
        monkeypatch.setattr(ProgramExecutor, "CHUNK", 4)
        spec = EstimatorSpec.create("range", self.SIZES, 24, seed=6)
        estimator = self.fed(spec, synthetic_boxes(Domain(self.SIZES), 200, seed=3))
        batch = self.assert_rows_alone(
            estimator, random_boxes(np.random.default_rng(queries), queries,
                                    self.SIZES))
        assert len(batch) == queries

    @pytest.mark.parametrize("instances", [1, 2])
    def test_one_and_two_instances(self, instances):
        """One instance: the control cannot vary, so beta is 0 and the
        value is the raw instance.  Two: beta fits them exactly."""
        spec = EstimatorSpec.create("range", self.SIZES, instances, seed=8)
        estimator = self.fed(spec, synthetic_boxes(Domain(self.SIZES), 120, seed=4))
        queries = random_boxes(np.random.default_rng(2), 6, self.SIZES)
        batch = self.assert_rows_alone(estimator, queries)
        [program] = estimator.lower(queries)
        raw = default_executor().run([replace(program, control=None)])[:-1]
        for got, plain in zip(batch, raw):
            assert 0.0 <= got.estimate <= 120
            assert np.isfinite(got.instance_values).all()
            if instances == 1:
                assert np.array_equal(got.instance_values, plain.instance_values)

    def test_a_strict_spec_controls_with_the_transformed_domain(self):
        """Under ``strict`` the sketch domain is the endpoint-transformed
        one, three times as wide; every transformed box lies inside it, so
        the control still has E[Z_N] = N."""
        spec = EstimatorSpec.create("range", self.SIZES, 256, seed=9, strict=True)
        assert spec.split_levels
        boxes = random_boxes(np.random.default_rng(5), 400, self.SIZES, strict=True)
        estimator = self.fed(spec, boxes)
        queries = random_boxes(np.random.default_rng(6), 8, self.SIZES)
        [program] = estimator.lower(queries)
        for term in program.terms:
            for ref in term.letter_sums:
                assert ref.low[-1] == 0 and ref.high[-1] >= 3 * 256 - 2
        control = default_executor().run(
            [replace(program, control=None)])[-1].instance_values
        standard_error = control.std(ddof=1) / np.sqrt(control.size)
        assert abs(control.mean() - 400) <= 3 * standard_error
        self.assert_rows_alone(estimator, queries)

    def test_data_in_one_corner(self):
        """Every box inside [0, 7]^2, so every box shares each level's one
        data node and the instances spread far wider than N: every answer
        still lies in [0, N], and on this seed the query away from the
        corner overshoots N and is clipped to it from above."""
        spec = EstimatorSpec.create("range", self.SIZES, 64, seed=10)
        estimator = self.fed(spec, random_boxes(np.random.default_rng(7), 150, (8, 8)))
        queries = BoxSet([[0, 0], [100, 100], [200, 0], [4, 4], [0, 0]],
                         [[10, 10], [255, 255], [255, 50], [120, 9], [7, 7]])
        batch = self.assert_rows_alone(estimator, queries)
        assert all(0.0 <= result.estimate <= 150 for result in batch)
        assert batch[1].estimate == 150 < batch[1].group_means[0]
