"""Per-relation synopses maintained under inserts.

The :class:`SynopsisManager` is the glue between the engine and the
estimation techniques of :mod:`repro.core`: ``join_sketch(left, right)``
lazily builds a :class:`~repro.core.join_hyperrect.SpatialJoinEstimator`
for a relation pair, back-fills it with the relations' current contents
and from then on keeps it current by listening to relation inserts.
The overlap join is symmetric, so a pair has one sketch whichever way
round it is asked for.  The sketches are linear, so each update is one
counter add and the estimator always summarises exactly what its
relations hold.  A batch of pair probes is one executor run; estimated
selectivities are what the optimizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.domain import Domain
from repro.core.hashing import stable_seed_offset
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.core.program import default_executor
from repro.engine.relation import SpatialRelation
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet


@dataclass(frozen=True, eq=False)
class _SideListener:
    """Feeds one relation's inserts into one side of a pair's estimator."""

    estimator: SpatialJoinEstimator
    side: str

    def on_insert(self, relation: SpatialRelation, boxes: BoxSet) -> None:
        self.estimator.update(self.side, boxes, 1)


class SynopsisManager:
    """Creates and maintains synopses for relations of one catalog/domain.

    Parameters
    ----------
    domain:
        The sketches' data space, with whatever level restrictions it
        carries (``Domain.with_max_level``).
    num_instances, seed:
        Sketch sizing.  A pair's sketch takes the relation whose name sorts
        first as its ``left`` side and is seeded ``seed +
        stable_seed_offset((first, second))`` with the names in that sorted
        order, so it does not depend on the process, on probe order or on
        which way round the pair is asked for.
    """

    def __init__(self, domain: Domain, *, num_instances: int = 256,
                 seed: int = 0) -> None:
        self._domain = domain
        self._num_instances = int(num_instances)
        self._seed = int(seed)
        self._sketches: dict[tuple[str, str], SpatialJoinEstimator] = {}

    def join_sketch(self, left: SpatialRelation,
                    right: SpatialRelation) -> SpatialJoinEstimator:
        """The live estimator of a relation pair (``join_sketch(b, a) is
        join_sketch(a, b)``): built and back-filled on first use, then
        updated in place by every insert into either relation."""
        if left.name == right.name:
            raise EngineError("a join sketch needs two distinct relations")
        if right.name < left.name:
            left, right = right, left
        key = (left.name, right.name)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = SpatialJoinEstimator(self._domain, self._num_instances,
                                          seed=self._seed + stable_seed_offset(key))
            for relation, side in ((left, "left"), (right, "right")):
                if len(relation):
                    sketch.update(side, relation.boxes())
                relation.add_listener(_SideListener(sketch, side))
            self._sketches[key] = sketch
        return sketch

    def estimated_join_cardinalities(
            self, pairs: Sequence[tuple[SpatialRelation, SpatialRelation]]
    ) -> list[float]:
        """Estimated join sizes of many relation pairs, clamped at 0.

        Every live pair's program runs in one
        :meth:`~repro.core.program.ProgramExecutor.run`; pairs with an empty
        side report 0 without probing.
        """
        results: list[float] = [0.0] * len(pairs)
        live = [index for index, (left, right) in enumerate(pairs)
                if len(left) and len(right)]
        programs = [program for index in live
                    for program in self.join_sketch(*pairs[index]).lower(1)]
        for index, outcome in zip(live, default_executor().run(programs)):
            results[index] = max(0.0, outcome.estimate)
        return results
