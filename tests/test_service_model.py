"""A stateful model check of the service's view cache.

A hypothesis state machine drives one two-shard
:class:`~repro.service.EstimationService` through inserts (some with a
zero-extent box, refused on a side the endpoint transform shrinks),
deletes of boxes it inserted, flushes, mixed ``estimate_multi`` batches,
unregister + re-register under another seed and a swap for
``restore_service(service.snapshot())``.  The view cache holds
fewer views than there are names, so views are evicted, rebuilt and
delta-refreshed in every order the machine finds.  The model is the
accepted update stream per name: every estimate must equal, bit for bit,
the estimate of a fresh unsharded ``spec.build()`` fed that stream.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.service.service as service_module
from repro.errors import ServiceError
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, EstimatorSpec, restore_service
from repro.service.specs import apply_update

from tests.conftest import random_boxes

SIZE = 64
#: name -> (family, options); one split-layout 2-D range, two joins.
FAMILIES = {"rq": ("range", {}), "rj": ("rectangle", {}),
            "eps": ("epsilon", {"epsilon": 2})}
NAMES = sorted(FAMILIES)
#: The one side the endpoint transform shrinks: the rectangle join's right.
SHRUNK = {("rj", "right")}
seeds = st.integers(0, 2 ** 32 - 1)


def make_spec(name: str, seed: int) -> EstimatorSpec:
    family, options = FAMILIES[name]
    return EstimatorSpec.create(family, (SIZE, SIZE), 16, seed=seed, **options)


class ViewCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._cache_size = service_module.VIEW_CACHE_SIZE
        service_module.VIEW_CACHE_SIZE = 2
        self.service = EstimationService(num_shards=2, flush_threshold=48)
        self.specs: dict[str, EstimatorSpec] = {}
        # name -> accepted (side, kind, boxes); (name, side) -> live rows.
        self.stream: dict[str, list] = {}
        self.live: dict[tuple[str, str], list] = {}
        for name in NAMES:
            self._register(name, seed=len(name))
            for right in (False, True):
                self.insert(name, right, count=4, seed=len(name) + right)

    def teardown(self) -> None:
        service_module.VIEW_CACHE_SIZE = self._cache_size

    def _register(self, name: str, *, seed: int) -> None:
        self.specs[name] = self.service.register(name, make_spec(name, seed))
        self.stream[name] = []
        for side in self.specs[name].info.sides:
            self.live[name, side] = []

    def _ingest(self, name: str, side: str, kind: str, rows: list) -> None:
        array = np.asarray(rows, dtype=np.int64)
        boxes = BoxSet(array[:, :2], array[:, 2:])
        self.service.ingest(name, boxes, side=side, kind=kind)
        self.stream[name].append((side, kind, boxes))

    @rule(name=st.sampled_from(NAMES), right=st.booleans(),
          count=st.integers(1, 6), seed=seeds, flat=st.booleans())
    def insert(self, name, right, count, seed, flat=False):
        spec = self.specs[name]
        side = spec.info.sides[-1] if right else spec.info.sides[0]
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, count, SIZE, 2, allow_degenerate=flat)
        rows = np.hstack((boxes.lows, boxes.highs))
        if name == "eps":                      # a point side: lo == hi
            rows[:, 2:] = rows[:, :2]
        elif flat:                             # a zero extent in one box
            column = int(rng.integers(2))
            rows[0, 2 + column] = rows[0, column]
        if flat and (name, side) in SHRUNK:
            # The endpoint transform would empty it: refused before the
            # buffer, so the model stream does not take it either.
            pending = self.service.pending
            with pytest.raises(ServiceError, match="lo == hi"):
                self._ingest(name, side, "insert", rows.tolist())
            assert self.service.pending == pending
            return
        self._ingest(name, side, "insert", rows.tolist())
        self.live[name, side].extend(rows.tolist())

    @rule(name=st.sampled_from(NAMES), right=st.booleans(), seed=seeds)
    def delete(self, name, right, seed):
        sides = self.specs[name].info.sides
        side = sides[-1] if right else sides[0]
        live = self.live[name, side]
        if not live:
            return
        rng = np.random.default_rng(seed)
        picked = sorted(rng.choice(len(live), rng.integers(1, len(live) + 1),
                                   replace=False), reverse=True)
        self._ingest(name, side, "delete", [live.pop(int(i)) for i in picked])

    @rule()
    def flush(self):
        self.service.flush()

    @rule(names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
          seed=seeds)
    def estimate_multi(self, names, seed):
        # A name with no net data answers EstimationError, by design.
        names = [name for name in names
                 if any(self.live[key] for key in self.live if key[0] == name)]
        if not names:
            return
        requests = []
        for name in names:
            query = None
            if self.specs[name].info.queryable:
                query = random_boxes(np.random.default_rng(seed), 1, SIZE, 2)
            requests.append((name, query))
        results = self.service.estimate_multi(requests)
        for (name, query), result in zip(requests, results):
            reference = self.specs[name].build()
            for side, kind, boxes in self.stream[name]:
                apply_update(self.specs[name], reference, side, kind, boxes)
            expected = reference.estimate(query)
            assert result.estimate == expected.estimate, name
            assert (result.instance_values.tobytes()
                    == expected.instance_values.tobytes()), name

    @rule(name=st.sampled_from(NAMES), seed=seeds)
    def reregister(self, name, seed):
        self.service.unregister(name)
        self._register(name, seed=seed)

    @rule()
    def restore(self):
        self.service = restore_service(self.service.snapshot())

    @invariant()
    def every_miss_is_a_delta_apply_or_a_rebuild(self):
        stats = self.service.stats
        assert stats.cache_misses == stats.delta_applies + stats.rebuilds


ViewCacheMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None)
TestViewCache = ViewCacheMachine.TestCase
