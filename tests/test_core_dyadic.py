"""Tests for the dyadic decomposition (Lemmas 2-4 of the paper)."""

import pytest

from repro.core.dyadic import DyadicDomain, DyadicInterval, next_power_of_two
from repro.errors import DomainError


class TestNextPowerOfTwo:
    @pytest.mark.parametrize("value,expected", [(1, 1), (2, 2), (3, 4), (5, 8),
                                                (8, 8), (9, 16), (1000, 1024)])
    def test_values(self, value, expected):
        assert next_power_of_two(value) == expected


class TestDomainBasics:
    def test_padding(self):
        domain = DyadicDomain(100)
        assert domain.requested_size == 100
        assert domain.size == 128
        assert domain.height == 7
        assert domain.num_nodes == 255

    def test_invalid_size(self):
        with pytest.raises(DomainError):
            DyadicDomain(0)

    def test_invalid_max_level(self):
        with pytest.raises(DomainError):
            DyadicDomain(16, max_level=5)
        with pytest.raises(DomainError):
            DyadicDomain(16, max_level=-1)

    def test_with_max_level(self):
        domain = DyadicDomain(64).with_max_level(2)
        assert domain.max_level == 2
        assert domain.size == 64


class TestNodeNumbering:
    def test_root_is_node_zero(self):
        domain = DyadicDomain(16)
        assert domain.node_id(4, 0) == 0
        assert domain.interval_of(0) == DyadicInterval(4, 0)

    def test_leaves_are_last_nodes(self):
        domain = DyadicDomain(16)
        for coordinate in range(16):
            node = domain.leaf_id(coordinate)
            assert node == 15 + coordinate
            assert domain.interval_of(node) == DyadicInterval(0, coordinate)

    def test_round_trip(self):
        domain = DyadicDomain(32)
        for node in range(domain.num_nodes):
            interval = domain.interval_of(node)
            assert domain.node_id(interval.level, interval.index) == node

    def test_dyadic_interval_bounds(self):
        interval = DyadicInterval(level=3, index=2)
        assert interval.lo == 16
        assert interval.hi == 23
        assert interval.length == 8

    def test_out_of_range_node(self):
        domain = DyadicDomain(8)
        with pytest.raises(DomainError):
            domain.interval_of(domain.num_nodes)
        with pytest.raises(DomainError):
            domain.node_id(1, 4)


class TestCovers:
    def test_cover_of_whole_domain_is_root(self):
        domain = DyadicDomain(64)
        assert domain.cover(0, 63) == [0]

    def test_cover_of_single_point_is_leaf(self):
        domain = DyadicDomain(64)
        assert domain.cover(5, 5) == [domain.leaf_id(5)]

    def test_cover_is_disjoint_and_exact(self, rng):
        domain = DyadicDomain(256)
        for _ in range(100):
            lo, hi = sorted(rng.integers(0, 256, size=2))
            covered = []
            for node in domain.cover(int(lo), int(hi)):
                interval = domain.interval_of(node)
                covered.extend(range(interval.lo, interval.hi + 1))
            assert sorted(covered) == list(range(lo, hi + 1))
            assert len(covered) == len(set(covered))

    def test_cover_size_bound_lemma2(self, rng):
        domain = DyadicDomain(1024)
        bound = 2 * domain.height
        for _ in range(200):
            lo, hi = sorted(rng.integers(0, 1024, size=2))
            assert len(domain.cover(int(lo), int(hi))) <= bound

    def test_cover_respects_max_level(self, rng):
        domain = DyadicDomain(256, max_level=3)
        for _ in range(50):
            lo, hi = sorted(rng.integers(0, 256, size=2))
            for node in domain.cover(int(lo), int(hi)):
                assert domain.interval_of(node).level <= 3

    def test_cover_with_max_level_zero_enumerates_points(self):
        domain = DyadicDomain(64, max_level=0)
        cover = domain.cover(10, 14)
        assert len(cover) == 5
        assert all(domain.interval_of(node).level == 0 for node in cover)

    def test_empty_interval_rejected(self):
        domain = DyadicDomain(32)
        with pytest.raises(DomainError):
            domain.cover(10, 5)

    def test_vectorised_covers_match_scalar(self, rng):
        domain = DyadicDomain(128)
        lows = rng.integers(0, 100, size=30)
        highs = lows + rng.integers(0, 27, size=30)
        ids, lengths = domain.covers(lows, highs)
        offset = 0
        for i in range(30):
            expected = domain.cover(int(lows[i]), int(highs[i]))
            assert list(ids[offset:offset + lengths[i]]) == expected
            offset += lengths[i]


class TestPointCovers:
    def test_point_cover_size_lemma3(self):
        domain = DyadicDomain(256)
        for coordinate in (0, 17, 255):
            cover = domain.point_cover(coordinate)
            assert len(cover) == domain.height + 1
            levels = {domain.interval_of(node).level for node in cover}
            assert levels == set(range(domain.height + 1))

    def test_point_cover_contains_point(self):
        domain = DyadicDomain(128)
        for coordinate in (0, 1, 63, 127):
            for node in domain.point_cover(coordinate):
                interval = domain.interval_of(node)
                assert interval.lo <= coordinate <= interval.hi

    def test_point_cover_respects_max_level(self):
        domain = DyadicDomain(128, max_level=2)
        assert len(domain.point_cover(77)) == 3

    def test_vectorised_point_covers_match_scalar(self, rng):
        domain = DyadicDomain(64)
        coords = rng.integers(0, 64, size=20)
        ids, lengths = domain.point_covers(coords)
        per = int(lengths[0])
        for i, coordinate in enumerate(coords):
            assert list(ids[i * per:(i + 1) * per]) == domain.point_cover(int(coordinate))

    def test_out_of_domain_coordinate_rejected(self):
        domain = DyadicDomain(32)
        with pytest.raises(DomainError):
            domain.point_cover(32)


class TestLemma4:
    """A point lies in an interval iff the covers share exactly one node."""

    @pytest.mark.parametrize("max_level", [None, 0, 2, 5])
    def test_common_nodes(self, rng, max_level):
        domain = DyadicDomain(128, max_level=max_level)
        for _ in range(200):
            lo, hi = sorted(rng.integers(0, 128, size=2))
            point = int(rng.integers(0, 128))
            interval_cover = set(domain.cover(int(lo), int(hi)))
            point_cover = set(domain.point_cover(point))
            common = interval_cover & point_cover
            if lo <= point <= hi:
                assert len(common) == 1
            else:
                assert len(common) == 0
