"""A selectivity-driven optimizer for (multi-way) spatial overlap joins.

The optimizer demonstrates the paper's motivation: spatial query plans are
expensive, and picking a good one requires accurate join-selectivity
estimates.  It uses the sketch-based estimates of the
:class:`~repro.engine.synopses.SynopsisManager` to pick a left-deep join
*order*, enumerating all orders of small queries and building one greedily
for larger ones.  A plan costs C_out, the sum of its estimated intermediate
cardinalities (Leis et al., "How Good Are Query Optimizers, Really?",
PVLDB 2015): each step's output is the previous one times the next
relation's size times its pair selectivities with every placed relation.

Multi-way semantics: the result of joining relations ``R1 .. Rk`` is the set
of object combinations that pairwise overlap.  For axis-aligned boxes,
pairwise overlap implies a common intersection region (Helly property per
dimension), so execution extends partial results by probing the next
relation with the running intersection box, and counts every intermediate
result exactly: the true C_out of the plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.query import JoinQuery, PlannedJoin
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.geometry.predicates import overlaps

#: Running intersection boxes probed against the next relation at once.
_PROBE_CHUNK = 256


@dataclass
class JoinPlan:
    """A left-deep join order and its estimated C_out (``estimated_cost``)."""

    order: tuple[str, ...]
    steps: list[PlannedJoin] = field(default_factory=list)
    estimated_cost: float = 0.0
    estimated_cardinality: float = 0.0


@dataclass
class PlanExecution:
    """Result of executing a plan: each step's exact output cardinality."""

    plan: JoinPlan
    step_cardinalities: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        """The final result's cardinality."""
        return self.step_cardinalities[-1]

    @property
    def cost(self) -> int:
        """The plan's true C_out."""
        return sum(self.step_cardinalities)

    def q_errors(self) -> tuple[float, ...]:
        """Each step's q-error ``max(est / true, true / est)`` (Moerkotte et
        al., PVLDB 2009), both counts floored at 1 so an empty step is
        defined."""
        return tuple(max(est / true, true / est) for est, true in (
            (max(step.estimated_cardinality, 1.0), max(exact, 1))
            for step, exact in zip(self.plan.steps, self.step_cardinalities)))


def _clamped_selectivity(cardinality: float, left: SpatialRelation,
                         right: SpatialRelation) -> float:
    """Cardinality as a [0, 1] selectivity; 0 for empty inputs.

    The single definition shared by the public per-pair API and the batched
    planning cache, so the two can never drift apart.
    """
    if len(left) == 0 or len(right) == 0:
        return 0.0
    return float(min(1.0, max(0.0, cardinality / (len(left) * len(right)))))


class _PairSelectivityCache:
    """Lazily batch-filled cache of ordered-pair join selectivities.

    Planning revisits the same relation pairs across candidate orders; the
    cache probes each *missing* pair group through
    :meth:`SynopsisManager.estimated_join_cardinalities` — one executor
    run per ``ensure`` call instead of one probe per lookup — while never
    touching pairs the caller does not ask about (the greedy path for large
    queries inspects only a fraction of all orientations).
    """

    def __init__(self, synopses: SynopsisManager) -> None:
        self._synopses = synopses
        self.values: dict[tuple[str, str], float] = {}

    def ensure(self, pairs) -> None:
        """Batch-probe every not-yet-cached ordered pair in ``pairs``."""
        missing: list[tuple[SpatialRelation, SpatialRelation]] = []
        seen: set[tuple[str, str]] = set()
        for left, right in pairs:
            key = (left.name, right.name)
            if key not in self.values and key not in seen:
                missing.append((left, right))
                seen.add(key)
        if not missing:
            return
        cardinalities = self._synopses.estimated_join_cardinalities(missing)
        for (left, right), cardinality in zip(missing, cardinalities):
            self.values[(left.name, right.name)] = _clamped_selectivity(
                cardinality, left, right)

    def get(self, left: SpatialRelation, right: SpatialRelation) -> float:
        """The cached selectivity, probing (scalar) when not yet ensured."""
        key = (left.name, right.name)
        if key not in self.values:
            self.ensure([(left, right)])
        return self.values[key]


class Optimizer:
    """Plans and executes spatial join queries using sketch-based estimates."""

    #: Exhaustively enumerate join orders up to this many relations.
    _ENUMERATION_LIMIT = 5

    def __init__(self, catalog: Catalog, synopses: SynopsisManager) -> None:
        self._catalog = catalog
        self._synopses = synopses

    # -- selectivity estimates -----------------------------------------------------------

    def estimated_pair_selectivity(self, left: SpatialRelation,
                                   right: SpatialRelation) -> float:
        """Estimated join selectivity of a relation pair (clamped to [0, 1])."""
        [cardinality] = self._synopses.estimated_join_cardinalities([(left, right)])
        return _clamped_selectivity(cardinality, left, right)

    # -- planning -----------------------------------------------------------------------------

    def plan_join(self, query: JoinQuery) -> JoinPlan:
        """The left-deep plan with the least estimated C_out.

        Pair selectivities are fetched through batched cardinality probes
        (:class:`_PairSelectivityCache`): exhaustive enumeration pulls all
        ordered pairs in one probe, the greedy path one probe per greedy
        round — never one scalar estimate call per (order, step) visit.
        """
        relations = [self._catalog.get(name) for name in query.relations]
        cache = _PairSelectivityCache(self._synopses)
        if len(relations) > self._ENUMERATION_LIMIT:
            orders = [tuple(r.name for r in self._greedy_order(relations, cache))]
        else:
            cache.ensure((left, right) for left in relations
                         for right in relations if left.name != right.name)
            orders = [tuple(r.name for r in perm)
                      for perm in itertools.permutations(relations)]
        return min((self._cost_order(order, cache) for order in orders),
                   key=lambda plan: plan.estimated_cost)

    def _greedy_order(self, relations: list[SpatialRelation],
                      cache: _PairSelectivityCache) -> list[SpatialRelation]:
        """Greedy order: start from the most selective pair, then smallest blow-up."""
        cache.ensure(itertools.combinations(relations, 2))
        best_pair = None
        best_value = None
        for left, right in itertools.combinations(relations, 2):
            value = cache.get(left, right) * len(left) * len(right)
            if best_value is None or value < best_value:
                best_value = value
                best_pair = (left, right)
        assert best_pair is not None
        order = list(best_pair)
        remaining = [r for r in relations if r not in order]
        while remaining:
            cache.ensure((placed, candidate)
                         for candidate in remaining for placed in order)

            def blow_up(candidate: SpatialRelation) -> float:
                selectivity = 1.0
                for placed in order:
                    selectivity *= cache.get(placed, candidate)
                return selectivity * len(candidate)

            next_relation = min(remaining, key=blow_up)
            order.append(next_relation)
            remaining.remove(next_relation)
        return order

    def _cost_order(self, order: tuple[str, ...],
                    cache: _PairSelectivityCache | None = None) -> JoinPlan:
        if cache is None:
            cache = _PairSelectivityCache(self._synopses)
        plan = JoinPlan(order=order)
        relations = [self._catalog.get(name) for name in order]
        cache.ensure((relations[earlier], relations[later])
                     for later in range(1, len(relations))
                     for earlier in range(later))
        intermediate_cardinality = float(len(relations[0]))
        for step_index in range(1, len(relations)):
            next_relation = relations[step_index]
            selectivity = 1.0
            for placed in relations[:step_index]:
                selectivity *= cache.get(placed, next_relation)
            intermediate_cardinality *= len(next_relation) * selectivity
            plan.steps.append(PlannedJoin(
                left=relations[step_index - 1].name if step_index == 1 else "<intermediate>",
                right=next_relation.name,
                estimated_cardinality=intermediate_cardinality,
            ))
        plan.estimated_cost = sum(step.estimated_cardinality for step in plan.steps)
        plan.estimated_cardinality = intermediate_cardinality
        return plan

    # -- execution --------------------------------------------------------------------------------

    def execute_plan(self, plan: JoinPlan, *, closed: bool = False) -> PlanExecution:
        """Execute a left-deep plan exactly, counting every intermediate result."""
        relations = [self._catalog.get(name) for name in plan.order]
        first = relations[0].boxes()
        # Partial results are represented by their running intersection boxes.
        lows, highs = first.lows, first.highs
        counts = []
        for relation in relations[1:]:
            boxes = relation.boxes()
            new_lows = [lows[:0]]
            new_highs = [highs[:0]]
            for start in range(0, len(lows), _PROBE_CHUNK):
                lo = lows[start:start + _PROBE_CHUNK]
                hi = highs[start:start + _PROBE_CHUNK]
                rows, matches = np.nonzero(np.all(overlaps(
                    lo[:, None, :], hi[:, None, :], boxes.lows[None, :, :],
                    boxes.highs[None, :, :], closed=closed), axis=2))
                new_lows.append(np.maximum(lo[rows], boxes.lows[matches]))
                new_highs.append(np.minimum(hi[rows], boxes.highs[matches]))
            lows = np.concatenate(new_lows)
            highs = np.concatenate(new_highs)
            counts.append(len(lows))
        return PlanExecution(plan=plan, step_cardinalities=tuple(counts))
