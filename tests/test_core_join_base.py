"""Tests for the shared pair-term machinery behind the join estimators."""

import pytest

from repro.core.atomic import Letter
from repro.core.join_base import PairedSketchJoinEstimator, expand_pair_terms
from repro.core.join_extended import EXTENDED_OVERLAP_PAIR_TERMS
from repro.core.join_hyperrect import (
    EXPLICIT_ENDPOINT_PAIR_TERMS,
    STANDARD_PAIR_TERMS,
    SpatialJoinEstimator,
)
from repro.errors import SketchConfigError

from tests.conftest import random_boxes


class TestExpandPairTerms:
    def test_one_dimension_matches_theorem1(self):
        combos = expand_pair_terms(STANDARD_PAIR_TERMS, 1)
        assert combos == {
            ((Letter.INTERVAL,), (Letter.ENDPOINTS,)): 0.5,
            ((Letter.ENDPOINTS,), (Letter.INTERVAL,)): 0.5,
        }

    def test_two_dimensions_matches_theorem2(self):
        combos = expand_pair_terms(STANDARD_PAIR_TERMS, 2)
        assert len(combos) == 4
        # Z = (X_II Y_EE + X_IE Y_EI + X_EI Y_IE + X_EE Y_II) / 4
        assert combos[((Letter.INTERVAL, Letter.INTERVAL),
                       (Letter.ENDPOINTS, Letter.ENDPOINTS))] == pytest.approx(0.25)
        assert all(value == pytest.approx(0.25) for value in combos.values())

    def test_coefficients_sum_to_product_of_per_dim_sums(self):
        # Per dimension the standard pair terms sum to 1, so the total over all
        # word combinations must be 1 for every dimensionality.
        for dimension in (1, 2, 3):
            combos = expand_pair_terms(STANDARD_PAIR_TERMS, dimension)
            assert sum(combos.values()) == pytest.approx(1.0)

    def test_explicit_terms_sum_to_minus_one_per_dimension(self):
        # (1/2 + 1/2 - 1 - 1 - 1/2 - 1/2) = -2 per dimension.
        combos = expand_pair_terms(EXPLICIT_ENDPOINT_PAIR_TERMS, 2)
        assert sum(combos.values()) == pytest.approx(4.0)  # (-2)^2

    def test_extended_terms_include_leaf_words(self):
        combos = expand_pair_terms(EXTENDED_OVERLAP_PAIR_TERMS, 1)
        left_words = {left for left, _ in combos}
        assert (Letter.LOWER_LEAF,) in left_words
        assert (Letter.UPPER_LEAF,) in left_words


class TestPairedEstimatorConfiguration:
    def test_requires_pair_terms(self, domain_1d):
        with pytest.raises(SketchConfigError):
            PairedSketchJoinEstimator(domain_1d, [], num_instances=4)

    def test_requires_positive_instances(self, domain_1d):
        with pytest.raises(SketchConfigError):
            PairedSketchJoinEstimator(domain_1d, STANDARD_PAIR_TERMS, num_instances=0)

    def test_word_banks_cover_all_combos(self, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, num_instances=4, seed=0,
                                         endpoint_policy="explicit")
        left_words = set(estimator.side_bank("left").words)
        right_words = set(estimator.side_bank("right").words)
        for left_word, right_word in estimator._combos:
            assert left_word in left_words
            assert right_word in right_words

    def test_banks_share_xi_families(self, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, num_instances=4, seed=0)
        assert all(a is b for a, b in zip(estimator.side_bank("left").xi_banks,
                                          estimator.side_bank("right").xi_banks))

    def test_storage_words_explicit_policy_is_larger(self, domain_1d):
        standard = SpatialJoinEstimator(domain_1d, num_instances=10, seed=0)
        explicit = SpatialJoinEstimator(domain_1d, num_instances=10, seed=0,
                                        endpoint_policy="explicit")
        assert explicit.storage_words() > standard.storage_words()

    def test_transform_policy_uses_expanded_domain(self, domain_1d):
        transformed = SpatialJoinEstimator(domain_1d, num_instances=4, seed=0,
                                           endpoint_policy="transform")
        plain = SpatialJoinEstimator(domain_1d, num_instances=4, seed=0,
                                     endpoint_policy="assume_distinct")
        assert (transformed.side_bank("left").domain.sizes[0]
                > plain.side_bank("left").domain.sizes[0])

    def test_counts_track_inserts_and_deletes(self, rng, domain_1d):
        estimator = SpatialJoinEstimator(domain_1d, num_instances=8, seed=0)
        left = random_boxes(rng, 12, 256, 1)
        right = random_boxes(rng, 7, 256, 1)
        estimator.update("left", left)
        estimator.update("right", right)
        estimator.update("right", right[:3], -1.0)
        assert estimator.left_count == 12
        assert estimator.right_count == 4

    def test_repr_contains_counts(self, rng, domain_1d):
        estimator = SpatialJoinEstimator(domain_1d, num_instances=8, seed=0)
        estimator.update("left", random_boxes(rng, 3, 256, 1))
        assert "|R|=3" in repr(estimator)
