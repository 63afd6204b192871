"""Tests for repro.geometry.boxset."""

import numpy as np
import pytest

from repro.errors import DimensionalityError, DomainError
from repro.geometry.boxset import BoxSet, PointSet


@pytest.fixture
def boxes() -> BoxSet:
    return BoxSet(
        np.array([[0, 0], [5, 5], [10, 2]]),
        np.array([[4, 4], [9, 9], [15, 6]]),
    )


class TestBoxSetConstruction:
    def test_shapes_must_match(self):
        with pytest.raises(DimensionalityError):
            BoxSet(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_lower_above_upper_rejected(self):
        with pytest.raises(DomainError):
            BoxSet(np.array([[5]]), np.array([[3]]))

    def test_from_intervals(self):
        result = BoxSet.from_intervals([(0, 5), (3, 9)])
        assert result.dimension == 1
        assert len(result) == 2

    def test_from_intervals_round_trips_its_rows(self):
        original = BoxSet(np.array([[0], [4], [7]]), np.array([[5], [4], [9]]))
        rebuilt = BoxSet.from_intervals((box.lows[0, 0], box.highs[0, 0])
                                        for box in original)
        assert np.array_equal(rebuilt.lows, original.lows)
        assert np.array_equal(rebuilt.highs, original.highs)
        with pytest.raises(DomainError):
            BoxSet.from_intervals([])

    def test_one_interval_from_scalar_bounds(self):
        interval = BoxSet(2, 7)
        assert len(interval) == 1 and interval.dimension == 1
        assert interval.lows.tolist() == [[2]] and interval.highs.tolist() == [[7]]

    def test_degenerate_boxes_are_allowed(self):
        point = BoxSet(3, 3)
        assert point.lows.tolist() == point.highs.tolist() == [[3]]
        flat = BoxSet((1, 4), (1, 9))
        assert flat.lows.tolist() == [[1, 4]] and flat.highs.tolist() == [[1, 9]]

    def test_an_inverted_row_is_refused_by_its_position(self):
        with pytest.raises(DomainError, match="box 2 "):
            BoxSet(np.array([[0, 0], [1, 1], [2, 5]]), np.array([[3, 3], [4, 4], [9, 4]]))

    def test_from_intervals_refuses_an_inverted_pair(self):
        with pytest.raises(DomainError):
            BoxSet.from_intervals([(0, 5), (9, 3)])

    def test_one_box_from_flat_bounds(self):
        box = BoxSet((1, 2), (5, 8))
        assert len(box) == 1 and box.dimension == 2
        assert box.lows.tolist() == [[1, 2]] and box.highs.tolist() == [[5, 8]]
        with pytest.raises(DimensionalityError):
            BoxSet((0, 0), (1, 1, 1))

    def test_empty(self):
        empty = BoxSet.empty(3)
        assert len(empty) == 0
        assert empty.dimension == 3

    def test_arrays_are_read_only(self, boxes):
        with pytest.raises(ValueError):
            boxes.lows[0, 0] = 99


class TestBoxSetAccessors:
    def test_len_and_dimension(self, boxes):
        assert len(boxes) == 3
        assert boxes.dimension == 2

    def test_row_access(self, boxes):
        assert boxes[1].lows.tolist() == [[5, 5]]
        assert boxes[1].highs.tolist() == [[9, 9]]

    def test_getitem_single_row_keeps_2d_shape(self, boxes):
        single = boxes[1]
        assert isinstance(single, BoxSet)
        assert len(single) == 1

    def test_getitem_mask(self, boxes):
        subset = boxes[np.array([True, False, True])]
        assert len(subset) == 2

    def test_iteration_yields_one_row_box_sets(self, boxes):
        rows = list(boxes)
        assert [len(row) for row in rows] == [1, 1, 1]
        assert np.array_equal(np.concatenate([row.lows for row in rows]), boxes.lows)
        assert np.array_equal(np.concatenate([row.highs for row in rows]), boxes.highs)


    def test_iterating_an_empty_set_yields_nothing(self):
        assert list(BoxSet.empty(2)) == []

    def test_negative_index_and_slice(self, boxes):
        assert boxes[-1].lows.tolist() == [[10, 2]]
        assert boxes[-1].highs.tolist() == [[15, 6]]
        tail = boxes[1:]
        assert tail.lows.tolist() == [[5, 5], [10, 2]]
        assert tail.highs.tolist() == [[9, 9], [15, 6]]


class TestBoxSetTransformations:
    def test_concat(self, boxes):
        combined = boxes.concat(boxes)
        assert len(combined) == 6

    def test_concat_dimension_mismatch(self, boxes):
        with pytest.raises(DimensionalityError):
            boxes.concat(BoxSet.empty(3))

    def test_scaled(self, boxes):
        scaled = boxes.scaled(3)
        assert np.array_equal(scaled.highs[0], np.array([12, 12]))

    def test_scaled_rejects_nonpositive(self, boxes):
        with pytest.raises(DomainError):
            boxes.scaled(0)

    def test_shrunk_for_endpoint_transform(self):
        data = BoxSet(np.array([[2]]), np.array([[7]]))
        shrunk = data.shrunk_for_endpoint_transform()
        assert shrunk.lows[0, 0] == 7
        assert shrunk.highs[0, 0] == 20

    def test_sample(self, boxes, rng):
        sampled = boxes.sample(2, rng)
        assert len(sampled) == 2

    def test_sample_too_large(self, boxes, rng):
        with pytest.raises(DomainError):
            boxes.sample(10, rng)


class TestPointSet:
    def test_basic_properties(self):
        points = PointSet(np.array([[1, 2], [3, 4]]))
        assert len(points) == 2
        assert points.dimension == 2
        assert points.point(1) == (3, 4)

    def test_to_boxes_is_degenerate(self):
        points = PointSet(np.array([[1, 2]]))
        boxes = points.to_boxes()
        assert np.array_equal(boxes.lows, boxes.highs)

    def test_concat(self):
        a = PointSet(np.array([[1, 1]]))
        b = PointSet(np.array([[2, 2]]))
        assert len(a.concat(b)) == 2

    def test_getitem_single_row_keeps_2d_shape(self):
        points = PointSet(np.array([[1, 2], [3, 4]]))
        single = points[1]
        assert single.coords.tolist() == [[3, 4]]
        assert single.dimension == 2

    def test_concat_refuses_a_dimension_mismatch(self):
        with pytest.raises(DimensionalityError):
            PointSet(np.array([[1, 1]])).concat(PointSet(np.array([[1, 1, 1]])))
