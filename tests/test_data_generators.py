"""Tests for the workload generators (Section 7 workloads)."""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data.reallife import REAL_LIFE_SPECS, generate_real_life_dataset, load_real_life_pair
from repro.data.streams import UpdateKind, UpdateStream
from repro.data.synthetic import generate_intervals, generate_points, generate_rectangles
from repro.data.zipf import zipf_probabilities, zipf_sample
from repro.errors import WorkloadError
from repro.geometry.boxset import BoxSet


class TestZipf:
    def test_probabilities_sum_to_one(self):
        for skew in (0.0, 0.5, 1.0, 2.0):
            probabilities = zipf_probabilities(100, skew)
            assert probabilities.sum() == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        probabilities = zipf_probabilities(10, 0.0)
        assert np.allclose(probabilities, 0.1)

    def test_probabilities_are_decreasing_for_positive_skew(self):
        probabilities = zipf_probabilities(50, 1.0)
        assert np.all(np.diff(probabilities) <= 0)

    def test_sample_range(self, rng):
        values = zipf_sample(1000, 64, 1.0, rng)
        assert values.min() >= 0
        assert values.max() < 64

    def test_sample_skew_concentrates_mass(self, rng):
        uniform = zipf_sample(5000, 100, 0.0, rng)
        skewed = zipf_sample(5000, 100, 1.5, rng)
        # The most frequent value should be far more dominant under skew.
        uniform_top = np.bincount(uniform).max()
        skewed_top = np.bincount(skewed).max()
        assert skewed_top > 3 * uniform_top

    def test_invalid_parameters(self, rng):
        with pytest.raises(WorkloadError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_probabilities(10, -1.0)
        with pytest.raises(WorkloadError):
            zipf_sample(-1, 10, 0.0, rng)


class TestSyntheticGenerators:
    def test_intervals_fit_domain_and_are_proper(self, rng):
        domain = Domain(512)
        data = generate_intervals(500, domain, rng=rng)
        assert len(data) == 500
        assert data.lows.min() >= 0
        assert data.highs.max() <= 511
        assert np.all(data.lows < data.highs)

    def test_interval_mean_length_control(self, rng):
        domain = Domain(4096)
        short = generate_intervals(800, domain, mean_length=4, rng=rng)
        long = generate_intervals(800, domain, mean_length=200, rng=rng)
        assert (short.highs - short.lows).mean() < (long.highs - long.lows).mean()

    def test_intervals_accept_plain_domain_size(self, rng):
        data = generate_intervals(10, 128, rng=rng)
        assert data.highs.max() <= 127

    def test_rectangles_fit_domain(self, rng):
        domain = Domain.square(256, dimension=2)
        data = generate_rectangles(400, domain, rng=rng)
        assert domain.contains(data)
        assert np.all(data.lows < data.highs)

    def test_rectangles_respect_per_dimension_skew(self, rng):
        domain = Domain((256, 256))
        data = generate_rectangles(2000, domain, skew=(0.0, 1.5), rng=rng)
        # The skewed dimension should concentrate starts on fewer values.
        unique_x = len(np.unique(data.lows[:, 0]))
        unique_y = len(np.unique(data.lows[:, 1]))
        assert unique_y < unique_x

    def test_rectangles_three_dimensional(self, rng):
        domain = Domain.square(64, dimension=3)
        data = generate_rectangles(100, domain, rng=rng)
        assert data.dimension == 3
        assert domain.contains(data)

    def test_points_fit_domain(self, rng):
        domain = Domain.square(128, dimension=2)
        points = generate_points(300, domain, rng=rng)
        assert np.array_equal(points.lows, points.highs)
        assert points.lows.min() >= 0
        assert points.lows.max() < 128

    def test_deterministic_with_seed(self):
        domain = Domain.square(128, dimension=2)
        a = generate_rectangles(50, domain, rng=7)
        b = generate_rectangles(50, domain, rng=7)
        assert np.array_equal(a.lows, b.lows)
        assert np.array_equal(a.highs, b.highs)

    def test_invalid_count(self, rng):
        with pytest.raises(WorkloadError):
            generate_intervals(0, Domain(64), rng=rng)

    def test_wrong_skew_arity(self, rng):
        with pytest.raises(WorkloadError):
            generate_rectangles(10, Domain.square(64, 2), skew=(1.0, 1.0, 1.0), rng=rng)


class TestRealLifeDatasets:
    def test_specs_match_paper_cardinalities(self):
        assert REAL_LIFE_SPECS["LANDO"].num_objects == 33_860
        assert REAL_LIFE_SPECS["LANDC"].num_objects == 14_731
        assert REAL_LIFE_SPECS["SOIL"].num_objects == 29_662

    def test_generation_at_small_scale(self):
        domain = Domain.square(4096, dimension=2)
        data = generate_real_life_dataset("LANDC", domain, scale=0.02, seed=1)
        assert len(data) == round(14_731 * 0.02)
        assert domain.contains(data)
        assert np.all(data.lows < data.highs)

    def test_generation_is_deterministic(self):
        domain = Domain.square(4096, dimension=2)
        a = generate_real_life_dataset("SOIL", domain, scale=0.02, seed=5)
        b = generate_real_life_dataset("SOIL", domain, scale=0.02, seed=5)
        assert np.array_equal(a.lows, b.lows)

    def test_layers_share_boundary_coordinates(self):
        # The snap-to-parcel-grid behaviour must produce many shared
        # coordinates, which is what stresses the endpoint handling.
        domain = Domain.square(4096, dimension=2)
        data = generate_real_life_dataset("LANDO", domain, scale=0.05, seed=2)
        values, counts = np.unique(data.lows[:, 0], return_counts=True)
        assert counts.max() > 5

    def test_object_sizes_are_skewed(self):
        domain = Domain.square(16_384, dimension=2)
        data = generate_real_life_dataset("LANDC", domain, scale=0.05, seed=3)
        sizes = data.highs[:, 0] - data.lows[:, 0] + 1
        assert sizes.max() > 10 * np.median(sizes)

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            generate_real_life_dataset("NOPE", Domain.square(1024, 2))

    def test_load_pair(self):
        left, right, domain = load_real_life_pair("LANDC", "SOIL", scale=0.01, seed=4)
        assert domain.contains(left)
        assert domain.contains(right)
        assert len(left) == round(14_731 * 0.01)
        assert len(right) == round(29_662 * 0.01)

    def test_scaled_spec_validation(self):
        with pytest.raises(WorkloadError):
            REAL_LIFE_SPECS["SOIL"].scaled(0.0)


class TestUpdateStream:
    def _boxes(self, rng, count=40):
        lows = rng.integers(0, 100, size=(count, 2))
        return BoxSet(lows, lows + rng.integers(1, 10, size=(count, 2)))

    def test_insert_only_stream(self, rng):
        boxes = self._boxes(rng)
        stream = UpdateStream(boxes, seed=1)
        operations = list(stream)
        assert len(operations) == 40
        assert all(op.kind is UpdateKind.INSERT for op in operations)

    def test_expected_length_with_deletes(self, rng):
        boxes = self._boxes(rng)
        stream = UpdateStream(boxes, delete_fraction=0.25, seed=1)
        assert stream.expected_length() == 50
        assert len(list(stream)) == 50

    def test_deletes_follow_inserts(self, rng):
        boxes = self._boxes(rng, 60)
        stream = UpdateStream(boxes, delete_fraction=0.5, warmup_fraction=0.3, seed=2)
        seen = set()
        for operation in stream:
            key = (tuple(operation.box.lows[0]), tuple(operation.box.highs[0]))
            if operation.kind is UpdateKind.DELETE:
                assert key in seen
            else:
                seen.add(key)

    def test_final_state_matches_replay(self, rng):
        boxes = self._boxes(rng, 50)
        stream = UpdateStream(boxes, delete_fraction=0.3, seed=3)
        counts: dict[tuple, int] = {}
        for operation in stream:
            key = (tuple(operation.box.lows[0]), tuple(operation.box.highs[0]))
            counts[key] = counts.get(key, 0) + (1 if operation.kind is UpdateKind.INSERT else -1)
        replay_total = sum(counts.values())
        assert replay_total == len(stream.final_state())

    def test_batches_group_consecutive_kinds(self, rng):
        boxes = self._boxes(rng, 30)
        stream = UpdateStream(boxes, delete_fraction=0.4, seed=4)
        total = 0
        for kind, batch in stream.batches(batch_size=8):
            assert isinstance(kind, UpdateKind)
            assert len(batch) <= 8
            total += len(batch)
        assert total == stream.expected_length()

    def test_invalid_fractions(self, rng):
        boxes = self._boxes(rng)
        with pytest.raises(WorkloadError):
            UpdateStream(boxes, delete_fraction=1.5)
        with pytest.raises(WorkloadError):
            UpdateStream(boxes, warmup_fraction=-0.1)
