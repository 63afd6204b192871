"""Tests for self-join size computation and space accounting."""

import numpy as np
import pytest

from repro.core import space
from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.core.selfjoin import dataset_self_join_size, self_join_size
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet

from tests.conftest import random_boxes
from tests.helpers import cover_counts


class TestSelfJoinSize:
    def test_single_interval(self):
        domain = Domain(16)
        boxes = BoxSet.from_intervals([(2, 9)])
        cover = domain.dyadic(0).cover(2, 9)
        # Each dyadic interval of the cover is hit exactly once -> SJ = |cover|.
        assert self_join_size(boxes, domain, (Letter.INTERVAL,)) == len(cover)

    def test_duplicated_interval_squares_counts(self):
        domain = Domain(16)
        boxes = BoxSet.from_intervals([(2, 9), (2, 9)])
        cover = domain.dyadic(0).cover(2, 9)
        assert self_join_size(boxes, domain, (Letter.INTERVAL,)) == 4 * len(cover)

    def test_matches_cover_count_helper(self, rng):
        domain = Domain(64)
        boxes = random_boxes(rng, 20, 64, 1)
        for word in [(Letter.INTERVAL,), (Letter.ENDPOINTS,), (Letter.UPPER_POINT,)]:
            counts = cover_counts(boxes, domain, word)
            expected = sum(value ** 2 for value in counts.values())
            assert self_join_size(boxes, domain, word) == pytest.approx(expected)

    def test_two_dimensional_matches_cover_counts(self, rng):
        domain = Domain.square(32, dimension=2)
        boxes = random_boxes(rng, 10, 32, 2)
        word = (Letter.INTERVAL, Letter.ENDPOINTS)
        counts = cover_counts(boxes, domain, word)
        expected = sum(value ** 2 for value in counts.values())
        assert self_join_size(boxes, domain, word) == pytest.approx(expected)

    def test_empty_dataset(self):
        domain = Domain(16)
        assert self_join_size(BoxSet.empty(1), domain, (Letter.INTERVAL,)) == 0.0

    def test_dataset_self_join_sums_words(self, rng):
        domain = Domain.square(32, dimension=2)
        boxes = random_boxes(rng, 10, 32, 2)
        words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], 2)
        expected = sum(self_join_size(boxes, domain, word) for word in words)
        assert dataset_self_join_size(boxes, domain) == pytest.approx(expected)

    def test_lower_max_level_reduces_endpoint_self_join(self, rng):
        base = Domain(256)
        boxes = random_boxes(rng, 60, 256, 1, max_extent=6)
        full = self_join_size(boxes, base, (Letter.ENDPOINTS,))
        restricted = self_join_size(boxes, base.with_max_level(3), (Letter.ENDPOINTS,))
        assert restricted < full

    def test_squared_sketch_counters_estimate_the_self_join(self, rng):
        # X_w^2 is an unbiased estimator of SJ(X_w) (Section 2.2).
        domain = Domain(64)
        boxes = random_boxes(rng, 30, 64, 1)
        truth = self_join_size(boxes, domain, (Letter.INTERVAL,))
        bank = SketchBank(domain, [(Letter.INTERVAL,)], num_instances=4000, seed=3)
        bank.insert(boxes)
        estimate = float(np.mean(bank.counter((Letter.INTERVAL,)) ** 2))
        assert estimate == pytest.approx(truth, rel=0.25)


class TestSpaceAccounting:
    def test_words_per_instance(self):
        # 1-d join sketch: 2 counters + half of 4 seed words.
        assert space.sketch_words_per_instance(1) == 4.0
        # 2-d join sketch: 4 counters + half of 8 seed words.
        assert space.sketch_words_per_instance(2) == 8.0

    def test_instances_for_budget_round_trip(self):
        budget = 4096
        instances = space.instances_for_budget(budget, 2)
        assert space.sketch_words(2, instances) <= budget
        assert space.sketch_words(2, instances + 1) > budget

    def test_budget_too_small(self):
        with pytest.raises(SketchConfigError):
            space.instances_for_budget(3, 2)

    def test_budget_charges_the_counters_an_instance_keeps(self):
        # 2-d with the endpoint transform: 4 counters + 4 seed words.
        assert space.instances_for_budget(800, 2) == 100
        # Explicit endpoints keep 4^d counters per instance.
        assert space.sketch_words_per_instance(2, counters_per_instance=16) == 20

    def test_histogram_word_formulas(self):
        assert space.euler_histogram_words(6) == 9 * 4096 - 6 * 64 + 1
        assert space.geometric_histogram_words(6) == 4 ** 7

    def test_level_for_budget(self):
        # The paper's "about 36K units" EH corresponds to level 6 (36 481 words).
        assert space.euler_level_for_budget(36_500) == 6
        assert space.geometric_level_for_budget(36_500) == 6
        assert space.geometric_level_for_budget(1_000) == 3

    def test_level_budget_too_small(self):
        with pytest.raises(SketchConfigError):
            space.euler_level_for_budget(2)

    def test_dataset_storage_words(self):
        assert space.dataset_storage_words(1000, 2) == 4000

    def test_required_instances_matches_theorem(self):
        total = space.required_instances_for_guarantee(0.5, 0.25, 10.0, 10.0, 10.0)
        # k1 = ceil(4 * 100 / (0.25 * 100)) = 16, k2 = 4.
        assert total == 64

    @pytest.mark.parametrize("epsilon, phi, lower_bound", [
        (0.0, 0.25, 10.0), (0.5, 1.0, 10.0), (0.5, 0.25, 0.0)],
        ids=["epsilon", "phi", "lower-bound"])
    def test_required_instances_refuses_an_impossible_guarantee(self, epsilon, phi,
                                                                lower_bound):
        with pytest.raises(SketchConfigError):
            space.required_instances_for_guarantee(epsilon, phi, 10.0, 10.0, lower_bound)
