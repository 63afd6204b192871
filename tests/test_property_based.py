"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomic import Letter
from repro.core.domain import Domain, EndpointTransform
from repro.core.dyadic import DyadicDomain
from repro.core.boosting import BoostingPlan, median_of_means
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.core.selfjoin import self_join_size
from repro.engine import Catalog, JoinPlan, Optimizer, SynopsisManager
from repro.exact.fenwick import FenwickTree
from repro.exact.interval_join import interval_join_count
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import (
    brute_force_join_count,
    plane_sweep_join_count,
    rectangle_join_count,
)
from repro.geometry.boxset import BoxSet
from repro.geometry.predicates import containment_matrix, overlap_matrix, overlaps

from tests.conftest import random_boxes
from tests.helpers import cover_counts, expected_estimator_value


# -- strategies -------------------------------------------------------------------

def interval_strategy(domain_size: int):
    return st.tuples(
        st.integers(min_value=0, max_value=domain_size - 2),
        st.integers(min_value=1, max_value=domain_size // 2),
    ).map(lambda pair: (pair[0], min(pair[0] + pair[1], domain_size - 1)))


def point_friendly_interval_strategy():
    """Short intervals on a 16-point grid, points (``lo == hi``) included."""
    return st.tuples(st.integers(0, 12), st.integers(0, 3)).map(
        lambda pair: (pair[0], pair[0] + pair[1]))


def interval_set_strategy(domain_size: int, max_count: int = 12):
    return st.lists(interval_strategy(domain_size), min_size=1, max_size=max_count)


def box_set_strategy(domain_size: int, dimension: int, max_count: int = 10):
    box = st.tuples(*[interval_strategy(domain_size) for _ in range(dimension)])
    return st.lists(box, min_size=1, max_size=max_count)


def to_boxset_1d(pairs) -> BoxSet:
    return BoxSet.from_intervals(pairs)


def to_boxset(boxes) -> BoxSet:
    lows = np.array([[rng[0] for rng in box] for box in boxes])
    highs = np.array([[rng[1] for rng in box] for box in boxes])
    return BoxSet(lows, highs)


# -- dyadic decomposition -----------------------------------------------------------

class TestDyadicProperties:
    @given(st.integers(min_value=2, max_value=9),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=-1, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_cover_partitions_interval(self, height, raw_lo, raw_hi, max_level):
        size = 2 ** height
        lo, hi = sorted((raw_lo % size, raw_hi % size))
        level = None if max_level < 0 else min(max_level, height)
        domain = DyadicDomain(size, max_level=level)
        cover = domain.cover(lo, hi)
        covered = []
        for node in cover:
            interval = domain.interval_of(node)
            covered.extend(range(interval.lo, interval.hi + 1))
        assert sorted(covered) == list(range(lo, hi + 1))
        if level is None:
            assert len(cover) <= max(1, 2 * height)

    @given(st.integers(min_value=2, max_value=9),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=150, deadline=None)
    def test_lemma4_exactly_one_common_node(self, height, raw_lo, raw_hi, raw_point):
        size = 2 ** height
        lo, hi = sorted((raw_lo % size, raw_hi % size))
        point = raw_point % size
        domain = DyadicDomain(size)
        common = set(domain.cover(lo, hi)) & set(domain.point_cover(point))
        assert len(common) == (1 if lo <= point <= hi else 0)

    @given(st.integers(min_value=1, max_value=9),
           st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)),
                    min_size=1, max_size=30),
           st.integers(min_value=-1, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_batched_covers_equal_scalar_covers(self, height, raw_pairs,
                                                max_level):
        """The vectorised level-sweep emits exactly the scalar walk's ids."""
        size = 2 ** height
        level = None if max_level < 0 else min(max_level, height)
        domain = DyadicDomain(size, max_level=level)
        pairs = [sorted((lo % size, hi % size)) for lo, hi in raw_pairs]
        lows = np.array([p[0] for p in pairs], dtype=np.int64)
        highs = np.array([p[1] for p in pairs], dtype=np.int64)
        ids, lengths = domain.covers(lows, highs)
        expected_ids: list[int] = []
        expected_lengths = []
        for lo, hi in pairs:
            cover = domain.cover(int(lo), int(hi))
            expected_ids.extend(cover)
            expected_lengths.append(len(cover))
        assert ids.tolist() == expected_ids
        assert lengths.tolist() == expected_lengths


# -- fused letter-sum kernels -----------------------------------------------------------

class TestFusedLetterSumProperties:
    """The fused sign+reduce paths are bit-identical to the naive reduction.

    The reference below recomputes every letter sum with scalar covers and
    plain ``signs()`` calls — the shape of the pre-fusion implementation —
    so these properties pin the fused cover-walk and table paths (whichever
    this process resolves to) against first principles.
    """

    @staticmethod
    def reference_letter_sums(bank, dim, letter, lows, highs):
        dyadic = bank.domain.dyadic(dim)
        xi = bank.xi_banks[dim]

        def point_sums(coords):
            columns = []
            for coordinate in coords:
                cover = np.asarray(dyadic.point_cover(int(coordinate)),
                                   dtype=np.int64)
                columns.append(xi.signs(cover).sum(axis=1, dtype=np.float64))
            return np.stack(columns, axis=1) if columns else \
                np.zeros((xi.num_families, 0))

        if letter is Letter.INTERVAL:
            columns = []
            for lo, hi in zip(lows, highs):
                cover = np.asarray(dyadic.cover(int(lo), int(hi)),
                                   dtype=np.int64)
                columns.append(xi.signs(cover).sum(axis=1, dtype=np.float64))
            return np.stack(columns, axis=1) if columns else \
                np.zeros((xi.num_families, 0))
        if letter is Letter.ENDPOINTS:
            return point_sums(lows) + point_sums(highs)
        if letter is Letter.LOWER_POINT:
            return point_sums(lows)
        if letter is Letter.UPPER_POINT:
            return point_sums(highs)
        if letter is Letter.LOWER_LEAF:
            leaves = dyadic.size - 1 + np.asarray(lows, dtype=np.int64)
            return xi.signs(leaves).astype(np.float64)
        leaves = dyadic.size - 1 + np.asarray(highs, dtype=np.int64)
        return xi.signs(leaves).astype(np.float64)

    @given(interval_set_strategy(64, max_count=20),
           st.sampled_from(list(Letter)),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fused_sums_bit_identical_to_reference(self, pairs, letter, seed):
        from repro.core.atomic import SketchBank, all_words

        domain = Domain((64,))
        bank = SketchBank(domain, all_words([letter], 1), 16, seed=seed)
        lows = np.array([p[0] for p in pairs], dtype=np.int64)
        highs = np.array([p[1] for p in pairs], dtype=np.int64)
        fused = bank.letter_sums(0, letter, lows, highs)
        reference = self.reference_letter_sums(bank, 0, letter, lows, highs)
        assert np.array_equal(fused, reference)
        # Repeat once the table is warm (repeated requests flip the bank
        # from polynomial evaluation to table gathers mid-life).
        again = bank.letter_sums(0, letter, lows, highs)
        assert np.array_equal(again, reference)


# -- exact join algorithms -------------------------------------------------------------

class TestExactJoinProperties:
    @given(interval_set_strategy(64), interval_set_strategy(64))
    @settings(max_examples=100, deadline=None)
    def test_interval_join_matches_oracle(self, left_pairs, right_pairs):
        left = to_boxset_1d(left_pairs)
        right = to_boxset_1d(right_pairs)
        oracle = sum(
            1
            for lo_l, hi_l in left_pairs
            for lo_r, hi_r in right_pairs
            if lo_l < hi_r and lo_r < hi_l and lo_l < hi_l and lo_r < hi_r
        )
        assert interval_join_count(left, right) == oracle

    @given(box_set_strategy(32, 2), box_set_strategy(32, 2))
    @settings(max_examples=60, deadline=None)
    def test_plane_sweep_matches_brute_force(self, left_boxes, right_boxes):
        left = to_boxset(left_boxes)
        right = to_boxset(right_boxes)
        assert plane_sweep_join_count(left, right) == brute_force_join_count(left, right)

    @given(interval_set_strategy(64), interval_set_strategy(64))
    @settings(max_examples=60, deadline=None)
    def test_join_commutes(self, left_pairs, right_pairs):
        left = to_boxset_1d(left_pairs)
        right = to_boxset_1d(right_pairs)
        assert interval_join_count(left, right) == interval_join_count(right, left)

    @given(interval_set_strategy(64))
    @settings(max_examples=50, deadline=None)
    def test_closed_join_dominates_strict_join(self, pairs):
        data = to_boxset_1d(pairs)
        assert interval_join_count(data, data, closed=True) >= interval_join_count(data, data)


# -- one overlap rule ----------------------------------------------------------------------

def small_box_set_strategy(dimension: int):
    """Boxes on a 16-point grid; zero extents (points, lines, planes) allowed."""
    box = st.lists(point_friendly_interval_strategy(), min_size=dimension,
                   max_size=dimension)
    return st.lists(box, min_size=1, max_size=12).map(to_boxset)


def executed_pair_count(left: BoxSet, right: BoxSet) -> int:
    catalog = Catalog(Domain.square(16, dimension=left.dimension))
    catalog.create("left", boxes=left)
    catalog.create("right", boxes=right)
    optimizer = Optimizer(catalog, SynopsisManager(catalog.domain, num_instances=16))
    return optimizer.execute_plan(JoinPlan(order=("left", "right"))).cardinality


class TestOverlapRuleProperties:
    @given(st.integers(1, 3).flatmap(lambda dimension: st.tuples(
               small_box_set_strategy(dimension), small_box_set_strategy(dimension))),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_counter_agrees_on_zero_extent_boxes(self, pair, closed):
        left, right = pair
        counts = {
            "brute_force_join_count": brute_force_join_count(left, right, closed=closed),
            "rectangle_join_count": rectangle_join_count(left, right, closed=closed),
            "overlaps pairs": sum(bool(np.all(overlaps(a.lows, a.highs, b.lows, b.highs,
                                                      closed=closed)))
                                  for a in left for b in right),
        }
        # The range counter is closed and plan execution strict, as the
        # sketches they check are.
        if closed:
            counts["range_query_count"] = sum(range_query_count(left, right[index])
                                              for index in range(len(right)))
        else:
            counts["execute_plan"] = executed_pair_count(left, right)
        if left.dimension == 1:
            counts["interval_join_count"] = interval_join_count(left, right, closed=closed)
        if left.dimension == 2:
            counts["plane_sweep_join_count"] = plane_sweep_join_count(left, right,
                                                                      closed=closed)
        expected = int(overlap_matrix(left, right, closed=closed).sum())
        assert counts == dict.fromkeys(counts, expected)

    def test_the_plane_sweep_dispatch_agrees_on_zero_extent_boxes(self):
        rng = np.random.default_rng(5)
        left = random_boxes(rng, 1200, 256, 2, max_extent=8, allow_degenerate=True)
        right = random_boxes(rng, 900, 256, 2, max_extent=8, allow_degenerate=True)
        assert len(left) + len(right) > 2000  # rectangle_join_count sweeps
        for closed in (False, True):
            assert rectangle_join_count(left, right, closed=closed) == \
                int(overlap_matrix(left, right, closed=closed).sum())


# -- estimator expectation --------------------------------------------------------------

class TestEstimatorExpectationProperties:
    @given(interval_set_strategy(32, max_count=8), interval_set_strategy(32, max_count=8))
    @settings(max_examples=40, deadline=None)
    def test_interval_join_expectation_equals_truth(self, left_pairs, right_pairs):
        domain = Domain(32)
        left = to_boxset_1d(left_pairs)
        right = to_boxset_1d(right_pairs)
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                         endpoint_policy="transform")
        truth = interval_join_count(left, right)
        assert abs(expected_estimator_value(estimator, left, right) - truth) < 1e-6

    @given(interval_set_strategy(32, max_count=8), interval_set_strategy(32, max_count=8))
    @settings(max_examples=40, deadline=None)
    def test_explicit_policy_expectation_equals_truth(self, left_pairs, right_pairs):
        domain = Domain(32)
        left = to_boxset_1d(left_pairs)
        right = to_boxset_1d(right_pairs)
        estimator = SpatialJoinEstimator(domain, num_instances=1, seed=0,
                                         endpoint_policy="explicit")
        truth = interval_join_count(left, right)
        assert abs(expected_estimator_value(estimator, left, right) - truth) < 1e-6


# -- geometry and domain ----------------------------------------------------------------------

class TestGeometryProperties:
    @given(st.one_of(interval_strategy(64), point_friendly_interval_strategy()),
           st.one_of(interval_strategy(64), point_friendly_interval_strategy()))
    @settings(max_examples=200, deadline=None)
    def test_interval_predicates_follow_the_overlap_rule(self, a_pair, b_pair):
        (a_lo, a_hi), (b_lo, b_hi) = a_pair, b_pair
        strict = overlaps(*a_pair, *b_pair)
        closed = overlaps(*a_pair, *b_pair, closed=True)
        assert strict is overlaps(*b_pair, *a_pair)
        assert closed is overlaps(*b_pair, *a_pair, closed=True)
        left, right = to_boxset_1d([a_pair]), to_boxset_1d([b_pair])
        assert overlap_matrix(left, right)[0, 0] == strict
        assert overlap_matrix(left, right, closed=True)[0, 0] == closed
        assert containment_matrix(left, right)[0, 0] == (a_lo <= b_lo and b_hi <= a_hi)
        # Strict overlap needs a positive extent on both sides; closed
        # overlap only needs a shared coordinate.
        assert not strict or (a_lo < a_hi and b_lo < b_hi)
        assert closed == (max(a_lo, b_lo) <= min(a_hi, b_hi))

    @given(interval_set_strategy(64), interval_set_strategy(64))
    @settings(max_examples=60, deadline=None)
    def test_endpoint_transform_preserves_join_size(self, left_pairs, right_pairs):
        domain = Domain(64)
        transform = EndpointTransform(domain)
        left = to_boxset_1d(left_pairs)
        right = to_boxset_1d(right_pairs)
        assert interval_join_count(left, right) == interval_join_count(
            transform.transform_left(left), transform.transform_right(right))

    @given(interval_set_strategy(64))
    @settings(max_examples=60, deadline=None)
    def test_self_join_size_lower_bound(self, pairs):
        # SJ(X_I) counts squared cell hits, so it is at least the total number
        # of cover elements (every count >= 1) and at most its square.
        domain = Domain(64)
        data = to_boxset_1d(pairs)
        counts = cover_counts(data, domain, (Letter.INTERVAL,))
        total = sum(counts.values())
        sj = self_join_size(data, domain, (Letter.INTERVAL,))
        assert len(counts) <= sj <= total ** 2


# -- substrate data structures --------------------------------------------------------------------

class TestFenwickProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.integers(min_value=-3, max_value=3)),
                    min_size=0, max_size=80),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=100, deadline=None)
    def test_prefix_sum_matches_naive(self, updates, query):
        tree = FenwickTree(64)
        reference = np.zeros(64, dtype=np.int64)
        for position, delta in updates:
            tree.add(position, delta)
            reference[position] += delta
        assert tree.prefix_sum(query) == int(reference[: query + 1].sum())


class TestBoostingProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_median_of_means_within_value_range(self, values):
        estimate, _ = median_of_means(np.array(values))
        assert min(values) - 1e-9 <= estimate <= max(values) + 1e-9

    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_constant_values_are_recovered_exactly(self, value, group_size, num_groups):
        plan = BoostingPlan(group_size=group_size, num_groups=num_groups)
        values = np.full(plan.total_instances, value)
        estimate, _ = median_of_means(values, plan)
        assert estimate == pytest.approx(value, rel=1e-12, abs=1e-9)
