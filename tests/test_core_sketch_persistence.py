"""Tests for sketch merging (distributed construction) and persistence."""

import json

import numpy as np
import pytest

from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.errors import MergeCompatibilityError, SketchConfigError
from repro.geometry.boxset import BoxSet
from repro.server.protocol import json_default
from repro.service.specs import EstimatorSpec, apply_update

from tests.conftest import random_boxes
from tests.helpers import assert_same_state


IE_1D = [(Letter.INTERVAL,), (Letter.ENDPOINTS,)]

#: One representative spec per estimator family (all eight).
FAMILY_SPECS = [
    ("interval", (256,), {}),
    ("rectangle", (256, 256), {}),
    ("hyperrect", (64, 64, 64), {}),
    ("extended_overlap", (256, 256), {}),
    ("common_endpoint", (256, 256), {}),
    ("containment", (256, 256), {}),
    ("epsilon", (256, 256), {"epsilon": 3}),
    ("range", (256, 256), {}),
]


class TestMerge:
    def test_merge_equals_union_insert(self, rng, domain_1d):
        part_a = random_boxes(rng, 20, 256, 1)
        part_b = random_boxes(rng, 15, 256, 1)

        whole = SketchBank(domain_1d, IE_1D, num_instances=16, seed=5)
        whole.insert(part_a.concat(part_b))

        first = SketchBank(domain_1d, IE_1D, num_instances=16, seed=5)
        second = first.companion()
        first.insert(part_a)
        second.insert(part_b)
        first.merge(second)

        for word in IE_1D:
            assert np.allclose(first.word_cells(word).sum(axis=1), whole.word_cells(word).sum(axis=1))

    def test_merge_two_dimensional(self, rng, domain_2d):
        words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], 2)
        part_a = random_boxes(rng, 10, 256, 2)
        part_b = random_boxes(rng, 12, 256, 2)
        whole = SketchBank(domain_2d, words, num_instances=8, seed=3)
        whole.insert(part_a.concat(part_b))
        first = SketchBank(domain_2d, words, num_instances=8, seed=3)
        second = first.companion()
        first.insert(part_a)
        second.insert(part_b)
        first.merge(second)
        for word in words:
            assert np.allclose(first.word_cells(word).sum(axis=1), whole.word_cells(word).sum(axis=1))

    def test_merge_rejects_different_seeds(self, domain_1d):
        first = SketchBank(domain_1d, IE_1D, num_instances=8, seed=1)
        second = SketchBank(domain_1d, IE_1D, num_instances=8, seed=2)
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_merge_rejects_different_words(self, domain_1d):
        first = SketchBank(domain_1d, IE_1D, num_instances=8, seed=1)
        second = first.companion(words=[(Letter.INTERVAL,)])
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_merge_rejects_different_instance_counts(self, domain_1d):
        first = SketchBank(domain_1d, IE_1D, num_instances=8, seed=1)
        second = SketchBank(domain_1d, IE_1D, num_instances=4, seed=1)
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_merge_rejects_different_domains(self):
        first = SketchBank(Domain(256), IE_1D, num_instances=8, seed=1)
        second = SketchBank(Domain(512), IE_1D, num_instances=8, seed=1)
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_merge_rejects_different_max_levels(self):
        first = SketchBank(Domain(256), IE_1D, num_instances=8, seed=1)
        second = SketchBank(Domain(256, max_levels=3), IE_1D, num_instances=8, seed=1)
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_merge_error_is_a_sketch_config_error(self, domain_1d):
        """Callers catching the older SketchConfigError keep working."""
        assert issubclass(MergeCompatibilityError, SketchConfigError)

    def test_merge_failure_leaves_counters_untouched(self, rng, domain_1d):
        first = SketchBank(domain_1d, IE_1D, num_instances=8, seed=1)
        first.insert(random_boxes(rng, 10, 256, 1))
        before = {word: first.word_cells(word).sum(axis=1) for word in IE_1D}
        second = SketchBank(domain_1d, IE_1D, num_instances=8, seed=2)
        second.insert(random_boxes(rng, 5, 256, 1))
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)
        for word in IE_1D:
            assert np.array_equal(first.word_cells(word).sum(axis=1), before[word])


class TestEstimatorMerge:
    """Typed merge errors at the estimator level (service merge path)."""

    def test_cross_family_merge_rejected(self):
        rect = EstimatorSpec.create("rectangle", (256, 256), 8, seed=1).build()
        ext = EstimatorSpec.create("extended_overlap", (256, 256), 8, seed=1).build()
        with pytest.raises(MergeCompatibilityError):
            rect.merge(ext)

    def test_epsilon_mismatch_rejected(self):
        first = EstimatorSpec.create("epsilon", (256, 256), 8, seed=1,
                                     epsilon=2).build()
        second = EstimatorSpec.create("epsilon", (256, 256), 8, seed=1,
                                      epsilon=5).build()
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_strict_mismatch_rejected(self):
        first = EstimatorSpec.create("range", (256, 256), 8, seed=1).build()
        second = EstimatorSpec.create("range", (256, 256), 8, seed=1,
                                      strict=True).build()
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)

    def test_seed_mismatch_rejected(self):
        first = EstimatorSpec.create("rectangle", (256, 256), 8, seed=1).build()
        second = EstimatorSpec.create("rectangle", (256, 256), 8, seed=2).build()
        with pytest.raises(MergeCompatibilityError):
            first.merge(second)


class TestPersistence:
    def test_state_dict_round_trip(self, rng, domain_1d):
        boxes = random_boxes(rng, 25, 256, 1)
        original = SketchBank(domain_1d, IE_1D, num_instances=12, seed=7)
        original.insert(boxes)
        snapshot = original.state_dict()

        restored = SketchBank(domain_1d, IE_1D, num_instances=12, seed=7)
        restored.load_state_dict(snapshot)
        for word in IE_1D:
            assert np.allclose(restored.word_cells(word).sum(axis=1), original.word_cells(word).sum(axis=1))
        assert restored.num_updates == original.num_updates

    def test_state_dict_is_json_serialisable(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=4, seed=7)
        bank.insert(random_boxes(rng, 5, 256, 1))
        text = json.dumps(bank.state_dict(), default=json_default)
        assert "counters" in json.loads(text)

    def test_restored_bank_supports_further_updates(self, rng, domain_1d):
        initial = random_boxes(rng, 20, 256, 1)
        later = random_boxes(rng, 10, 256, 1)

        original = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        original.insert(initial)
        snapshot = original.state_dict()
        original.insert(later)

        restored = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        restored.load_state_dict(snapshot)
        restored.insert(later)
        for word in IE_1D:
            assert np.allclose(restored.word_cells(word).sum(axis=1), original.word_cells(word).sum(axis=1))

    def test_seed_mismatch_rejected(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        bank.insert(random_boxes(rng, 5, 256, 1))
        other = SketchBank(domain_1d, IE_1D, num_instances=8, seed=10)
        with pytest.raises(SketchConfigError):
            other.load_state_dict(bank.state_dict())

    def test_domain_mismatch_rejected_on_load(self, rng):
        """Same seed/words/instances but a different domain must not load."""
        bank = SketchBank(Domain(512), IE_1D, num_instances=8, seed=9)
        bank.insert(random_boxes(rng, 5, 256, 1))
        other = SketchBank(Domain(256), IE_1D, num_instances=8, seed=9)
        with pytest.raises(MergeCompatibilityError):
            other.load_state_dict(bank.state_dict())

    def test_legacy_snapshot_without_domain_still_loads(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        bank.insert(random_boxes(rng, 5, 256, 1))
        state = bank.state_dict()
        del state["domain"]
        restored = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        restored.load_state_dict(state)
        for word in IE_1D:
            assert np.array_equal(restored.word_cells(word).sum(axis=1), bank.word_cells(word).sum(axis=1))

    def test_instance_count_mismatch_rejected(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        other = SketchBank(domain_1d, IE_1D, num_instances=4, seed=9)
        with pytest.raises(SketchConfigError):
            other.load_state_dict(bank.state_dict())


class TestColumnarState:
    """The contiguous counter tensor and the tensor-form snapshots."""

    def test_counter_tensor_matches_per_word_counters(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=12, seed=7)
        bank.insert(random_boxes(rng, 25, 256, 1))
        tensor = bank.counter_tensor
        assert tensor.shape == (12, len(IE_1D))
        assert tensor.flags.c_contiguous and not tensor.flags.writeable
        for column, word in enumerate(bank.words):
            assert np.array_equal(tensor[:, column], bank.word_cells(word).sum(axis=1))

    def test_array_state_round_trip_is_bit_identical(self, rng, domain_1d):
        original = SketchBank(domain_1d, IE_1D, num_instances=12, seed=7)
        original.insert(random_boxes(rng, 25, 256, 1))
        state = original.state_dict()
        assert isinstance(state["counters"], np.ndarray)
        assert state["xi_coefficients"].shape == (1, 12, 4)

        restored = SketchBank(domain_1d, IE_1D, num_instances=12, seed=7)
        restored.load_state_dict(state)
        assert np.array_equal(restored.counter_tensor, original.counter_tensor)
        assert restored.num_updates == original.num_updates

    def test_array_and_json_states_describe_the_same_counters(self, rng, domain_1d):
        """An NDJSON hop turns the tensors into nested lists; both load alike."""
        bank = SketchBank(domain_1d, IE_1D, num_instances=6, seed=3)
        bank.insert(random_boxes(rng, 15, 256, 1))
        array_state = bank.state_dict()
        json_state = json.loads(json.dumps(array_state, default=json_default))
        assert json_state["counters"] == array_state["counters"].tolist()
        restored = bank.companion()
        restored.load_state_dict(json_state)
        assert np.array_equal(restored.counter_tensor, bank.counter_tensor)
        assert restored.num_updates == bank.num_updates

    def test_per_word_counter_lists_are_refused(self, rng, domain_1d):
        """The retired v1 state form gets a typed error, not a numpy one."""
        bank = SketchBank(domain_1d, IE_1D, num_instances=6, seed=3)
        state = bank.state_dict()
        state["counters"] = {"I": [0.0] * 6, "E": [0.0] * 6}
        with pytest.raises(MergeCompatibilityError, match="not a tensor"):
            bank.load_state_dict(state)

    def test_adopted_read_only_tensor_copies_on_first_write(self, rng, domain_1d):
        original = SketchBank(domain_1d, IE_1D, num_instances=8, seed=7)
        original.insert(random_boxes(rng, 20, 256, 1))
        state = original.state_dict()
        state["counters"].setflags(write=False)

        adopted = SketchBank(domain_1d, IE_1D, num_instances=8, seed=7)
        adopted.load_state_dict(state, copy=False)
        assert adopted._matrix is state["counters"]  # no copy on load
        later = random_boxes(rng, 5, 256, 1)
        adopted.insert(later)  # must not raise: copy-on-write
        original.insert(later)
        assert np.array_equal(adopted.counter_tensor, original.counter_tensor)

    def test_merge_is_a_single_tensor_add(self, rng, domain_1d):
        first = SketchBank(domain_1d, IE_1D, num_instances=8, seed=5)
        second = first.companion()
        first.insert(random_boxes(rng, 10, 256, 1))
        second.insert(random_boxes(rng, 12, 256, 1))
        expected = first.counter_tensor + second.counter_tensor
        first.merge(second)
        assert np.array_equal(first.counter_tensor, expected)

    def test_array_state_seed_mismatch_rejected(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        bank.insert(random_boxes(rng, 5, 256, 1))
        other = SketchBank(domain_1d, IE_1D, num_instances=8, seed=10)
        with pytest.raises(MergeCompatibilityError):
            other.load_state_dict(bank.state_dict())

    def test_array_state_shape_mismatch_rejected(self, rng, domain_1d):
        bank = SketchBank(domain_1d, IE_1D, num_instances=8, seed=9)
        state = bank.state_dict()
        state["counters"] = state["counters"][:, :1]
        with pytest.raises(MergeCompatibilityError):
            bank.load_state_dict(state)


def _family_boxes(rng, family, sizes, count):
    boxes = random_boxes(rng, count, sizes[0], len(sizes))
    if family == "epsilon":
        return BoxSet(boxes.lows, boxes.lows.copy(), validate=False)
    return boxes


class TestEstimatorPersistence:
    """state_dict -> load_state_dict -> estimate round trip, every family."""

    @pytest.mark.parametrize("family,sizes,options", FAMILY_SPECS,
                             ids=[f[0] for f in FAMILY_SPECS])
    def test_round_trip_estimate_equality(self, rng, family, sizes, options):
        spec = EstimatorSpec.create(family, sizes, 16, seed=13, **options)
        original = spec.build()
        for side in spec.info.sides:
            apply_update(spec, original, side, "insert",
                         _family_boxes(rng, family, sizes, 120))

        snapshot = json.loads(json.dumps(original.state_dict(),
                                         default=json_default))
        restored = spec.build()
        restored.load_state_dict(snapshot)
        assert_same_state(restored.state_dict(), original.state_dict())

        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        original_result = original.estimate(query)
        restored_result = restored.estimate(query)
        assert restored_result.estimate == original_result.estimate
        assert restored_result.left_count == original_result.left_count
        assert restored_result.right_count == original_result.right_count
        assert np.array_equal(restored_result.instance_values,
                              original_result.instance_values)

    @pytest.mark.parametrize("family,sizes,options", FAMILY_SPECS,
                             ids=[f[0] for f in FAMILY_SPECS])
    def test_restored_estimator_accepts_further_updates(self, rng, family,
                                                        sizes, options):
        spec = EstimatorSpec.create(family, sizes, 8, seed=3, **options)
        original = spec.build()
        side = spec.info.sides[0]
        first = _family_boxes(rng, family, sizes, 60)
        later = _family_boxes(rng, family, sizes, 40)
        apply_update(spec, original, side, "insert", first)
        snapshot = original.state_dict()
        apply_update(spec, original, side, "insert", later)

        restored = spec.build()
        restored.load_state_dict(snapshot)
        apply_update(spec, restored, side, "insert", later)
        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        assert (restored.estimate(query).estimate
                == original.estimate(query).estimate)

    @pytest.mark.parametrize("family,sizes,options", FAMILY_SPECS,
                             ids=[f[0] for f in FAMILY_SPECS])
    def test_array_state_round_trip_estimate_equality(self, rng, family,
                                                      sizes, options):
        """Tensor states restore bit-identically, every family."""
        spec = EstimatorSpec.create(family, sizes, 16, seed=13, **options)
        original = spec.build()
        for side in spec.info.sides:
            apply_update(spec, original, side, "insert",
                         _family_boxes(rng, family, sizes, 80))
        restored = spec.build()
        restored.load_state_dict(original.state_dict())
        assert_same_state(restored.state_dict(), original.state_dict())
        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        original_result = original.estimate(query)
        restored_result = restored.estimate(query)
        assert restored_result.estimate == original_result.estimate
        assert np.array_equal(restored_result.instance_values,
                              original_result.instance_values)

    def test_seed_mismatch_rejected_on_load(self, rng):
        snapshot = EstimatorSpec.create("rectangle", (256, 256), 8,
                                        seed=1).build().state_dict()
        other = EstimatorSpec.create("rectangle", (256, 256), 8, seed=2).build()
        with pytest.raises(MergeCompatibilityError):
            other.load_state_dict(snapshot)
