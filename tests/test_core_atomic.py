"""Tests for the atomic sketch banks (Sections 3.1-3.2)."""

import numpy as np
import pytest

from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.errors import DimensionalityError, SketchConfigError
from repro.geometry.boxset import BoxSet

from tests.conftest import random_boxes
from tests.helpers import expected_counter_product


IE_1D = [(Letter.INTERVAL,), (Letter.ENDPOINTS,)]
IE_2D = all_words([Letter.INTERVAL, Letter.ENDPOINTS], 2)


class TestWords:
    def test_all_words_count(self):
        assert len(all_words([Letter.INTERVAL, Letter.ENDPOINTS], 3)) == 8


class TestConstruction:
    def test_basic(self, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=1)
        assert bank.num_instances == 8
        assert bank.dimension == 1
        assert set(bank.words) == set(IE_1D)

    def test_zero_instances_rejected(self, domain_1d):
        with pytest.raises(SketchConfigError):
            SketchBank(domain_1d, IE_1D, num_instances=0)

    def test_empty_words_rejected(self, domain_1d):
        with pytest.raises(SketchConfigError):
            SketchBank(domain_1d, [], num_instances=4)

    def test_word_dimension_mismatch(self, domain_2d):
        with pytest.raises(DimensionalityError):
            SketchBank(domain_2d, IE_1D, num_instances=4)

    def test_duplicate_words_rejected(self, domain_1d):
        with pytest.raises(SketchConfigError):
            SketchBank(domain_1d, [IE_1D[0], IE_1D[0]], num_instances=4)

    def test_companion_shares_xi_families(self, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=3)
        other = bank.companion()
        assert other.xi_banks is bank.xi_banks or all(
            a is b for a, b in zip(other.xi_banks, bank.xi_banks))

    def test_counters_start_at_zero(self, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=3)
        for word in bank.words:
            assert np.all(bank.counter(word) == 0)


class TestUpdates:
    def test_insert_then_delete_restores_zero(self, domain_1d, rng):
        bank = SketchBank(domain_1d, IE_1D, num_instances=16, seed=5)
        boxes = random_boxes(rng, 30, 256, 1)
        bank.insert(boxes)
        assert any(np.any(bank.counter(word) != 0) for word in bank.words)
        bank.insert(boxes, weight=-1.0)
        for word in bank.words:
            assert np.allclose(bank.counter(word), 0.0)

    def test_insert_is_order_independent(self, domain_1d, rng):
        boxes = random_boxes(rng, 20, 256, 1)
        bank_a = SketchBank(domain_1d, IE_1D, num_instances=8, seed=7)
        bank_b = SketchBank(domain_1d, IE_1D, num_instances=8, seed=7)
        bank_a.insert(boxes)
        order = rng.permutation(len(boxes))
        bank_b.insert(boxes[order])
        for word in IE_1D:
            assert np.allclose(bank_a.counter(word), bank_b.counter(word))

    def test_batched_and_single_inserts_agree(self, domain_2d, rng):
        boxes = random_boxes(rng, 15, 256, 2)
        bank_a = SketchBank(domain_2d, IE_2D, num_instances=8, seed=9)
        bank_b = SketchBank(domain_2d, IE_2D, num_instances=8, seed=9)
        bank_a.insert(boxes)
        for i in range(len(boxes)):
            bank_b.insert(boxes[i])
        for word in IE_2D:
            assert np.allclose(bank_a.counter(word), bank_b.counter(word))

    def test_out_of_domain_boxes_rejected(self, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        outside = BoxSet(np.array([[0]]), np.array([[400]]))
        with pytest.raises(Exception):
            bank.insert(outside)

    def test_dimension_mismatch_rejected(self, domain_1d, rng):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        with pytest.raises(DimensionalityError):
            bank.insert(random_boxes(rng, 5, 100, 2))

    def test_empty_insert_is_noop(self, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        bank.insert(BoxSet.empty(1))
        assert bank.num_updates == 0

    def test_update_accounting_scales_with_weight(self, domain_1d, rng):
        """num_updates is the net *weighted* box count, not the raw count.

        Historically any non-unit weight bumped the counter by +count
        regardless of magnitude or sign; the accounting now follows the
        linear-projection semantics (weight w == w copies of every box).
        """
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        boxes = random_boxes(rng, 3, 256, 1)
        bank.insert(boxes)
        assert bank.num_updates == 3
        assert isinstance(bank.num_updates, int)  # integral stays int
        bank.insert(boxes, weight=2.0)
        assert bank.num_updates == 9  # 3 + 2 * 3
        bank.insert(boxes, weight=-2.0)
        assert bank.num_updates == 3
        bank.insert(boxes, weight=0.5)
        assert bank.num_updates == 4.5  # fractional weights account exactly
        bank.insert(boxes, weight=-1.0)
        assert bank.num_updates == 1.5
        # The weighted total round-trips through snapshots.
        clone = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        clone.load_state_dict(bank.state_dict())
        assert clone.num_updates == 1.5

    def test_weighted_insert_equals_repeated_inserts(self, domain_1d, rng):
        boxes = random_boxes(rng, 5, 256, 1)
        weighted = SketchBank(domain_1d, IE_1D, num_instances=4, seed=2)
        repeated = SketchBank(domain_1d, IE_1D, num_instances=4, seed=2)
        weighted.insert(boxes, weight=2.0)
        repeated.insert(boxes)
        repeated.insert(boxes)
        assert weighted.num_updates == repeated.num_updates == 10
        for word in IE_1D:
            assert np.allclose(weighted.counter(word), repeated.counter(word))

    def test_letter_boxes_override(self, domain_1d, rng):
        words = [(Letter.LOWER_LEAF,), (Letter.INTERVAL,)]
        boxes = random_boxes(rng, 10, 200, 1)
        alt = random_boxes(rng, 10, 200, 1)
        bank = SketchBank(domain_1d, words, num_instances=8, seed=11)
        bank.insert(boxes, letter_boxes={Letter.LOWER_LEAF: alt})
        # The interval counter should match a plain insert of `boxes` ...
        reference = SketchBank(domain_1d, words, num_instances=8, seed=11)
        reference.insert(boxes)
        assert not np.allclose(bank.counter((Letter.LOWER_LEAF,)),
                               reference.counter((Letter.LOWER_LEAF,)))
        assert np.allclose(bank.counter((Letter.INTERVAL,)),
                           reference.counter((Letter.INTERVAL,)))


class TestCounterSemantics:
    """Counter values equal the sum over boxes of products of cover sign sums."""

    def test_interval_counter_matches_manual_computation(self, rng):
        domain = Domain(64)
        boxes = random_boxes(rng, 12, 64, 1)
        bank = SketchBank(domain, IE_1D, num_instances=3, seed=13)
        signs_by_instance = [bank.xi_banks[0].signs_for_family(k, np.arange(127))
                             for k in range(3)]
        expected = np.zeros(3)
        dyadic = domain.dyadic(0)
        for i in range(len(boxes)):
            cover = dyadic.cover(int(boxes.lows[i, 0]), int(boxes.highs[i, 0]))
            for k in range(3):
                expected[k] += sum(signs_by_instance[k][node] for node in cover)
        bank.insert(boxes)
        assert np.allclose(bank.counter((Letter.INTERVAL,)), expected)

    def test_endpoint_counter_matches_manual_computation(self, rng):
        domain = Domain(64)
        boxes = random_boxes(rng, 12, 64, 1)
        bank = SketchBank(domain, IE_1D, num_instances=2, seed=17)
        signs = [bank.xi_banks[0].signs_for_family(k, np.arange(127)) for k in range(2)]
        expected = np.zeros(2)
        dyadic = domain.dyadic(0)
        for i in range(len(boxes)):
            covers = dyadic.point_cover(int(boxes.lows[i, 0])) + \
                dyadic.point_cover(int(boxes.highs[i, 0]))
            for k in range(2):
                expected[k] += sum(signs[k][node] for node in covers)
        bank.insert(boxes)
        assert np.allclose(bank.counter((Letter.ENDPOINTS,)), expected)

    def test_two_dimensional_counter_matches_manual_computation(self, rng):
        domain = Domain.square(32, dimension=2)
        boxes = random_boxes(rng, 8, 32, 2)
        word = (Letter.INTERVAL, Letter.ENDPOINTS)
        bank = SketchBank(domain, [word], num_instances=2, seed=19)
        expected = np.zeros(2)
        for k in range(2):
            for i in range(len(boxes)):
                total = 1.0
                for dim, letter in enumerate(word):
                    dyadic = domain.dyadic(dim)
                    signs = bank.xi_banks[dim].signs_for_family(
                        k, np.arange(dyadic.num_nodes))
                    if letter is Letter.INTERVAL:
                        nodes = dyadic.cover(int(boxes.lows[i, dim]), int(boxes.highs[i, dim]))
                    else:
                        nodes = dyadic.point_cover(int(boxes.lows[i, dim])) + \
                            dyadic.point_cover(int(boxes.highs[i, dim]))
                    total *= sum(signs[node] for node in nodes)
                expected[k] += total
        bank.insert(boxes)
        assert np.allclose(bank.counter(word), expected)

    def test_self_product_expectation_matches_cover_counts(self, rng):
        """E[X_w * Y_w'] over shared xi families equals the cover-count inner product."""
        domain = Domain(64)
        left = random_boxes(rng, 10, 64, 1)
        right = random_boxes(rng, 10, 64, 1)
        num_instances = 6000
        left_bank = SketchBank(domain, IE_1D, num_instances=num_instances, seed=21)
        right_bank = left_bank.companion()
        left_bank.insert(left)
        right_bank.insert(right)
        product = left_bank.counter((Letter.INTERVAL,)) * right_bank.counter((Letter.ENDPOINTS,))
        expected = expected_counter_product(left, right, domain,
                                            (Letter.INTERVAL,), (Letter.ENDPOINTS,))
        standard_error = product.std() / np.sqrt(num_instances)
        assert abs(product.mean() - expected) < 5 * standard_error + 1e-9


class TestLetterSums:
    def test_a_query_box_sums_to_its_insert_contribution(self, rng):
        domain = Domain.square(64, dimension=2)
        word = (Letter.INTERVAL, Letter.UPPER_POINT)
        bank = SketchBank(domain, [word], num_instances=10, seed=23)
        box = random_boxes(rng, 1, 64, 2)
        values = np.ones(10)
        for dim, letter in enumerate(word):
            values *= bank.letter_sums(dim, letter, box.lows[:, dim],
                                       box.highs[:, dim])[:, 0]
        bank.insert(box)
        assert np.allclose(bank.counter(word), values)

    def test_a_dimension_outside_the_bank_is_refused(self, domain_2d):
        bank = SketchBank(domain_2d, IE_2D, num_instances=4, seed=1)
        for kernel in (bank.letter_sums, bank.level_sums):
            with pytest.raises(DimensionalityError):
                kernel(2, Letter.INTERVAL, np.zeros(1), np.zeros(1))
