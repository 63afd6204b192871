"""The estimator contract, checked once over all eight families.

:class:`repro.core.estimator.SketchEstimator` owns updates, merging, the
state form, companions and delta application; a family only declares its
sides and prepares coordinates.  Every test here runs against each family,
so a ninth family (or a change to the base) is checked by adding one
parameter, not one more copy of these tests.  The state round trip (tensors
and the NDJSON hop) is parametrised over the same eight families in
``tests/test_core_sketch_persistence.py::TestEstimatorPersistence``, where
it has always lived.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.errors import EstimationError, MergeCompatibilityError, SketchConfigError
from repro.geometry.boxset import BoxSet, PointSet
from repro.service.specs import EstimatorSpec

from tests.conftest import random_boxes
from tests.helpers import assert_same_state

#: One representative spec per estimator family (all eight).
FAMILY_SPECS = [
    ("interval", (256,), {}),
    ("rectangle", (256, 256), {}),
    ("hyperrect", (64, 64, 64), {}),
    ("extended_overlap", (256, 256), {}),
    ("common_endpoint", (256, 256), {}),
    ("containment", (256, 256), {}),
    ("epsilon", (256, 256), {"epsilon": 3}),
    ("range", (256, 256), {"strict": True}),
]

every_family = pytest.mark.parametrize(
    "spec", [EstimatorSpec.create(family, sizes, 16, seed=13, **options)
             for family, sizes, options in FAMILY_SPECS],
    ids=[family for family, _, _ in FAMILY_SPECS])


def side_data(rng, spec, count):
    """Fresh input for one side: points where the family takes points."""
    boxes = random_boxes(rng, count, spec.sizes[0], spec.dimension)
    return PointSet(boxes.lows) if spec.info.point_sides else boxes


def fed(rng, spec, count=60):
    """An estimator with ``count`` objects on every side, plus what it saw."""
    estimator = spec.build()
    stream = {side: side_data(rng, spec, count) for side in spec.info.sides}
    for side, data in stream.items():
        estimator.update(side, data)
    return estimator, stream


def answer(spec, estimator):
    query = BoxSet([[10] * spec.dimension], [[90] * spec.dimension])
    return estimator.estimate(query if spec.info.queryable else None)


@every_family
def test_every_side_name_and_alias_reaches_its_own_bank(rng, spec):
    """A side's aliases ("left" for outer / data) name the same side as its
    name, and no two sides share a bank."""
    estimator = spec.build()
    banks = [estimator.side_bank(declared.name) for declared in type(estimator).SIDES]
    assert len({id(bank) for bank in banks}) == len(banks)
    for declared, bank in zip(type(estimator).SIDES, banks):
        data = side_data(rng, spec, 40)
        by_name, by_alias = spec.build(), spec.build()
        by_name.update(declared.name, data)
        for alias in declared.aliases:
            assert estimator.resolve_side(alias) is declared
            assert estimator.side_bank(alias) is bank
        by_alias.update((declared.aliases or (declared.name,))[0], data)
        assert by_alias.state_dict()[declared.count_key] == 40
        assert_same_state(by_name.state_dict(), by_alias.state_dict())


@every_family
def test_merge_of_a_partition_equals_the_whole_stream(rng, spec):
    whole, stream = fed(rng, spec, count=90)
    merged = spec.build()
    for part in range(3):
        shard = spec.build()
        for side, data in stream.items():
            shard.update(side, data[part * 30:(part + 1) * 30])
        merged.merge(shard)
    assert_same_state(merged.state_dict(), whole.state_dict())
    assert answer(spec, merged).estimate == answer(spec, whole).estimate


@every_family
def test_companion_aliases_the_xi_banks_and_zeroes_counts(rng, spec):
    original, stream = fed(rng, spec)
    before = original.state_dict()
    companion = original.companion()
    assert type(companion) is type(original)
    for side in spec.info.sides:
        assert companion.state_dict()[companion.resolve_side(side).count_key] == 0
        assert not companion.side_bank(side).counter_tensor.any()
        assert all(mine is theirs for mine, theirs in zip(
            companion.side_bank(side).xi_banks,
            original.side_bank(side).xi_banks))
    with pytest.raises(EstimationError):
        answer(spec, companion)
    # Feeding the companion reproduces the original and leaves it alone.
    for side, data in stream.items():
        companion.update(side, data)
    assert_same_state(companion.state_dict(), before)
    assert_same_state(original.state_dict(), before)


@every_family
def test_with_delta_equals_a_merge_and_leaves_the_view_untouched(rng, spec):
    view, stream = fed(rng, spec)
    before = view.state_dict()
    delta = view.companion()
    scratch = spec.build()
    for side, data in stream.items():
        later = side_data(rng, spec, 25)
        delta.update(side, later)
        delta.update(side, data[:10], -1.0)
        scratch.update(side, data[10:])
        scratch.update(side, later)
    refreshed = view.with_delta(delta)
    assert_same_state(refreshed.state_dict(), scratch.state_dict())
    assert_same_state(view.state_dict(), before)
    ours, theirs = answer(spec, refreshed), answer(spec, scratch)
    assert ours.estimate == theirs.estimate
    assert np.array_equal(ours.instance_values, theirs.instance_values)
    for side in spec.info.sides:
        assert refreshed.side_bank(side).xi_banks[0] \
            is view.side_bank(side).xi_banks[0]


@every_family
def test_a_retraction_leaves_the_sketch_of_what_remains(rng, spec):
    """A deletion is an update of weight -1: retracting part of a stream
    leaves exactly the sketch of the rest."""
    estimator, stream = fed(rng, spec)
    remains = spec.build()
    for side, data in stream.items():
        estimator.update(side, data[:25], -1.0)
        remains.update(side, data[25:])
    assert_same_state(estimator.state_dict(), remains.state_dict())
    assert answer(spec, estimator).estimate == answer(spec, remains).estimate


@every_family
def test_no_data_is_one_error(spec):
    with pytest.raises(EstimationError, match="before any data"):
        answer(spec, spec.build())


@every_family
def test_a_sketch_whose_inserts_were_all_deleted_is_the_same_error(rng, spec):
    estimator, stream = fed(rng, spec)
    for side, data in stream.items():
        estimator.update(side, data, -1.0)
    with pytest.raises(EstimationError, match="or after all of it was deleted"):
        answer(spec, estimator)


def _explicit_and_plain_joins():
    # One class, one domain (neither policy transforms), two sets of pair terms.
    domain = Domain((64, 64))
    return (SpatialJoinEstimator(domain, 8, seed=1, endpoint_policy="explicit"),
            SpatialJoinEstimator(domain, 8, seed=1, endpoint_policy="assume_distinct"))


def _pair(family, sizes, ours, theirs):
    return tuple(EstimatorSpec.create(family, sizes, 8, **options).build()
                 for options in (ours, theirs))


MISMATCHES = {
    "pair_terms": _explicit_and_plain_joins,
    "epsilon": lambda: _pair("epsilon", (64, 64), {"seed": 1, "epsilon": 2},
                             {"seed": 1, "epsilon": 5}),
    "strict": lambda: _pair("range", (64, 64), {"seed": 1},
                            {"seed": 1, "strict": True}),
    "seed": lambda: _pair("rectangle", (64, 64), {"seed": 1}, {"seed": 2}),
    "domain": lambda: (
        EstimatorSpec.create("rectangle", (64, 64), 8, seed=1).build(),
        EstimatorSpec.create("rectangle", (64, 128), 8, seed=1).build()),
    "family": lambda: (
        EstimatorSpec.create("rectangle", (64, 64), 8, seed=1).build(),
        EstimatorSpec.create("extended_overlap", (64, 64), 8, seed=1).build()),
}


@pytest.mark.parametrize("what", sorted(MISMATCHES))
def test_mismatches_are_refused_by_merge_load_and_delta(rng, what):
    ours, theirs = MISMATCHES[what]()
    data = random_boxes(rng, 20, 64, 2)
    ours.update("left", PointSet(data.lows) if type(ours).SIDES[0].points else data)
    before = ours.state_dict()
    with pytest.raises(MergeCompatibilityError):
        ours.merge(theirs)
    with pytest.raises(MergeCompatibilityError):
        ours.with_delta(theirs)
    if what != "family":  # another family's state has other keys altogether
        with pytest.raises(MergeCompatibilityError):
            ours.load_state_dict(theirs.state_dict())
    assert_same_state(ours.state_dict(), before)


def test_update_refuses_unknown_sides_and_fractional_weights(rng):
    estimator = EstimatorSpec.create("containment", (64, 64), 8).build()
    data = random_boxes(rng, 5, 64, 2)
    with pytest.raises(SketchConfigError, match="has sides"):
        estimator.update("data", data)
    with pytest.raises(SketchConfigError, match="whole-number"):
        estimator.update("outer", data, 0.5)
    assert estimator.state_dict()["outer_count"] == 0
