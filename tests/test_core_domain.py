"""Tests for repro.core.domain (Domain, EndpointTransform)."""

import numpy as np
import pytest

from repro.core.domain import Domain, EndpointTransform
from repro.errors import DimensionalityError, DomainError
from repro.exact.rectangle_join import brute_force_join_count
from repro.geometry.boxset import BoxSet

from tests.conftest import random_boxes


class TestDomain:
    def test_single_size_becomes_one_dimension(self):
        domain = Domain(100)
        assert domain.dimension == 1
        assert domain.sizes == (128,)
        assert domain.requested_sizes == (100,)

    def test_square(self):
        domain = Domain.square(1000, dimension=3)
        assert domain.dimension == 3
        assert domain.sizes == (1024, 1024, 1024)

    def test_max_levels_broadcast(self):
        domain = Domain((64, 128), max_levels=2)
        assert domain.dyadic(0).max_level == 2
        assert domain.dyadic(1).max_level == 2

    def test_max_levels_per_dimension(self):
        domain = Domain((64, 128), max_levels=(1, 3))
        assert domain.dyadic(0).max_level == 1
        assert domain.dyadic(1).max_level == 3

    def test_max_levels_length_mismatch(self):
        with pytest.raises(DimensionalityError):
            Domain((64, 128), max_levels=(1, 2, 3))

    def test_with_max_level(self):
        domain = Domain.square(256, dimension=2).with_max_level(4)
        assert all(d.max_level == 4 for d in domain.dyadics)

    def test_contains(self):
        domain = Domain.square(64, dimension=2)
        inside = BoxSet(np.array([[0, 0]]), np.array([[63, 63]]))
        outside = BoxSet(np.array([[0, 0]]), np.array([[64, 10]]))
        assert domain.contains(inside)
        assert not domain.contains(outside)

    def test_validate_boxes_raises(self):
        domain = Domain.square(64, dimension=2)
        outside = BoxSet(np.array([[0, 0]]), np.array([[100, 10]]))
        with pytest.raises(DomainError):
            domain.validate_boxes(outside)
        with pytest.raises(DimensionalityError):
            domain.validate_boxes(BoxSet(np.array([[0]]), np.array([[1]])))


class TestEndpointTransform:
    def test_expanded_domain_is_three_times_larger(self):
        transform = EndpointTransform(Domain(100))
        assert transform.expanded_domain.requested_sizes == (300,)

    def test_left_and_right_transforms_never_share_endpoints(self, rng):
        domain = Domain.square(64, dimension=2)
        transform = EndpointTransform(domain)
        left = random_boxes(rng, 50, 64, 2)
        right = random_boxes(rng, 50, 64, 2)
        scaled_left = transform.transform_left(left)
        shrunk_right = transform.transform_right(right)
        left_coords = set(scaled_left.lows.ravel()) | set(scaled_left.highs.ravel())
        right_coords = set(shrunk_right.lows.ravel()) | set(shrunk_right.highs.ravel())
        assert not left_coords & right_coords

    def test_transform_preserves_join_cardinality(self, rng):
        domain = Domain.square(64, dimension=2)
        transform = EndpointTransform(domain)
        for _ in range(10):
            left = random_boxes(rng, 30, 64, 2)
            right = random_boxes(rng, 30, 64, 2)
            original = brute_force_join_count(left, right)
            transformed = brute_force_join_count(transform.transform_left(left),
                                                 transform.transform_right(right))
            assert original == transformed

    def test_transformed_boxes_fit_in_expanded_domain(self, rng):
        domain = Domain.square(64, dimension=2)
        transform = EndpointTransform(domain)
        boxes = random_boxes(rng, 40, 64, 2)
        assert transform.expanded_domain.contains(transform.transform_left(boxes))
        assert transform.expanded_domain.contains(transform.transform_right(boxes))

    def test_query_transform_matches_left(self, rng):
        domain = Domain(64)
        transform = EndpointTransform(domain)
        boxes = random_boxes(rng, 5, 64, 1)
        assert np.array_equal(transform.transform_query(boxes).lows,
                              transform.transform_left(boxes).lows)
