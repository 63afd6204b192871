"""Property test: batch estimates == scalar estimates, bit for bit.

For every one of the eight estimator families, over randomly drawn
workloads that include deletions, sharding and merged shard views, the
batched estimation path must return *exactly* what a loop of scalar
``estimate`` calls returns — same boosted estimate, same per-instance
values, same group means.  This is the tentpole guarantee of the batched
engine: batching is a pure execution-strategy change, never a numerics
change.  A range batch is one program whose letter sums carry a column per
query, so its queries include zero extents and domain edges, over both
counter layouts.

The same holds for persistence: a state round trip through a binary
snapshot file (restored through a read-only memory map) or through a JSON
hop of the state tree must leave every estimate bit-identical — the
columnar state layer is likewise a pure storage-strategy change.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.boxset import BoxSet
from repro.server.protocol import json_default
from repro.service import (
    EstimationService,
    EstimatorSpec,
    restore_service,
)

#: Family -> (domain sizes, update sides, extra spec options).
FAMILY_CASES = {
    "interval": ((64,), ("left", "right"), {}),
    "rectangle": ((32, 32), ("left", "right"), {}),
    "hyperrect": ((16, 16, 16), ("left", "right"), {}),
    "extended_overlap": ((32, 32), ("left", "right"), {}),
    "common_endpoint": ((32, 32), ("left", "right"), {}),
    "containment": ((32, 32), ("outer", "inner"), {}),
    "epsilon": ((32, 32), ("left", "right"), {"epsilon": 2}),
    "range": ((32, 32), ("data",), {}),
}

#: More range specs, over both counter layouts: level-split in 1-D and
#: strict 2-D, one cell per word in 3-D.
RANGE_CASES = {
    "range_1d": ((64,), ("data",), {}),
    "range_strict": ((32, 32), ("data",), {"strict": True}),
    "range_3d": ((16, 16, 16), ("data",), {}),
}

#: Case -> (family, domain sizes, update sides, extra spec options).
CASES = {**{family: (family, *case) for family, case in FAMILY_CASES.items()},
         **{name: ("range", *case) for name, case in RANGE_CASES.items()}}

NUM_INSTANCES = 9  # 3 groups of 3 under split_instances


def _boxes(rng: np.random.Generator, count: int, sizes: tuple[int, ...],
           *, degenerate: bool) -> BoxSet:
    if degenerate:
        lows = np.column_stack(
            [rng.integers(0, size, size=count) for size in sizes])
        return BoxSet(lows, lows.copy(), validate=False)
    # Proper boxes (hi > lo in every dimension): the endpoint-transform
    # families shrink the right input, which cannot represent lo == hi.
    lows = np.column_stack(
        [rng.integers(0, size - 1, size=count) for size in sizes])
    extents = np.column_stack(
        [rng.integers(1, max(2, size // 3), size=count) for size in sizes])
    highs = np.minimum(lows + extents, np.asarray(sizes, dtype=np.int64) - 1)
    return BoxSet(lows, highs, validate=False)


def _range_queries(rng: np.random.Generator, count: int,
                   sizes: tuple[int, ...]) -> BoxSet:
    """Proper query rectangles mixed with the rows a range batch lowers
    apart: zero extent in one dimension or in all (a level-split bank's
    ``[u, v - 1]`` is empty there), and rows on the domain's edges."""
    proper = _boxes(rng, count, sizes, degenerate=False)
    lows, highs = proper.lows.copy(), proper.highs.copy()
    top = np.asarray(sizes, dtype=np.int64) - 1
    for row in range(count):
        dim = int(rng.integers(len(sizes)))
        shape = int(rng.integers(5))
        if shape == 1:                      # zero extent in one dimension
            highs[row, dim] = lows[row, dim]
        elif shape == 2:                    # a point
            highs[row] = lows[row]
        elif shape == 3:                    # edge to edge in one dimension
            lows[row, dim], highs[row, dim] = 0, top[dim]
        elif shape == 4:                    # the domain's far corner point
            lows[row] = highs[row] = top
    return BoxSet(lows, highs)


workload = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "num_shards": st.integers(min_value=1, max_value=3),
    "inserts": st.integers(min_value=2, max_value=40),
    "delete_fraction": st.floats(min_value=0.0, max_value=0.75),
    "num_queries": st.integers(min_value=1, max_value=6),
})


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(case=workload)
def test_batch_equals_scalar_on_merged_shard_views(name, case):
    family, sizes, sides, options = CASES[name]
    rng = np.random.default_rng(case["seed"])
    degenerate = family == "epsilon"

    service = EstimationService(num_shards=case["num_shards"],
                                flush_threshold=None)
    spec = EstimatorSpec.create(family, sizes, NUM_INSTANCES,
                                seed=case["seed"] % 1000, **options)
    service.register("est", spec)

    for side in sides:
        inserted = _boxes(rng, case["inserts"], sizes, degenerate=degenerate)
        service.ingest("est", inserted, side=side, kind="insert")
        # Delete a prefix of what this side saw: deletes meet their inserts
        # on the same shard (deterministic routing), keeping every shard a
        # valid linear summary.
        deletions = int(case["delete_fraction"] * (case["inserts"] - 1))
        if deletions:
            service.ingest("est", inserted[:deletions], side=side, kind="delete")
    service.flush()

    if family == "range":
        queries = _range_queries(rng, case["num_queries"], sizes)
        batch = service.estimate_batch("est", queries)
        scalars = [service.estimate("est", queries[j])
                   for j in range(len(queries))]
    else:
        queries = [None] * case["num_queries"]
        batch = service.estimate_batch("est", queries)
        scalars = [service.estimate("est") for _ in queries]

    assert len(batch) == case["num_queries"]
    for scalar, batched in zip(scalars, batch):
        assert scalar.estimate == batched.estimate
        assert np.array_equal(scalar.instance_values, batched.instance_values)
        assert np.array_equal(scalar.group_means, batched.group_means)
        assert scalar.left_count == batched.left_count
        assert scalar.right_count == batched.right_count

    # The merged view the service answered from must itself agree with its
    # own batch kernel when driven directly (store-level equivalence).
    direct = service.store.merge_view("est").estimate_batch(
        queries if family == "range" else len(queries))
    assert [r.estimate for r in direct] == [r.estimate for r in batch]

    # Persistence equivalence: a round trip through the binary snapshot
    # file (restored through a read-only memory map) and through the state
    # tree after a JSON hop (tensors as nested lists, what an NDJSON link
    # delivers) must leave every estimate bit-identical.
    with tempfile.TemporaryDirectory(prefix="repro-snap-") as tmp:
        path = os.path.join(tmp, "svc.snap")
        service.save(path)
        hopped = json.loads(json.dumps(service.snapshot(), default=json_default))
        for restored in (EstimationService.load(path), restore_service(hopped)):
            if family == "range":
                round_tripped = restored.estimate_batch("est", queries)
            else:
                round_tripped = restored.estimate_batch("est", len(queries))
            for before, after in zip(batch, round_tripped):
                assert after.estimate == before.estimate
                assert np.array_equal(after.instance_values,
                                      before.instance_values)
                assert np.array_equal(after.group_means, before.group_means)
