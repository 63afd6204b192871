"""A selectivity-driven optimizer for (multi-way) spatial overlap joins.

The optimizer demonstrates the paper's motivation: spatial query plans are
expensive, and picking a good one requires accurate join-selectivity
estimates.  It uses the sketch-based estimates the
:class:`~repro.engine.synopses.SynopsisManager` serves from its
:class:`~repro.service.service.EstimationService` to

* choose a physical operator for every binary join (nested loop, plane
  sweep, grid-index nested loop or R-tree join) based on the cost model, and
* pick a join *order* for multi-way joins by enumerating (small queries) or
  greedily constructing (larger queries) left-deep orders and costing them
  with estimated intermediate cardinalities.

Multi-way semantics: the result of joining relations ``R1 .. Rk`` is the set
of object combinations that pairwise overlap.  For axis-aligned boxes,
pairwise overlap implies a common intersection region (Helly property per
dimension), so execution extends partial results by probing the next
relation with the running intersection box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.operators import (
    IndexNestedLoopJoin,
    NestedLoopJoin,
    PlaneSweepJoin,
    RTreeJoin,
)
from repro.engine.query import JoinQuery, PlannedJoin
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.geometry.boxset import BoxSet
from repro.index.grid import GridIndex


@dataclass
class JoinPlan:
    """A left-deep join order with one operator choice per step."""

    order: tuple[str, ...]
    steps: list[PlannedJoin] = field(default_factory=list)
    estimated_cost: float = 0.0
    estimated_cardinality: float = 0.0


@dataclass
class PlanExecution:
    """Result of executing a plan."""

    plan: JoinPlan
    cardinality: int
    comparisons: int


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
    :meth:`SynopsisManager.estimated_join_cardinalities` — one
    median-of-means reduction per ``ensure`` call instead of one scalar
    estimate per lookup — while never touching pairs the caller does not
    ask about (the greedy path for large queries inspects only a fraction
    of all orientations).
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

    def __init__(self, catalog: Catalog, synopses: SynopsisManager,
                 cost_model: CostModel | None = None) -> None:
        self._catalog = catalog
        self._synopses = synopses
        self._cost = cost_model or CostModel()

    # -- selectivity estimates -----------------------------------------------------------

    def estimated_pair_selectivity(self, left: SpatialRelation,
                                   right: SpatialRelation) -> float:
        """Estimated join selectivity of a relation pair (clamped to [0, 1])."""
        if len(left) == 0 or len(right) == 0:
            return 0.0
        cardinality = self._synopses.estimated_join_cardinality(left, right)
        return _clamped_selectivity(cardinality, left, right)

    # -- operator choice ------------------------------------------------------------------

    def choose_operator(self, probe_size: float, indexed_size: float,
                        estimated_output: float, *, dimension: int) -> tuple[str, float]:
        """The cheapest physical operator and its estimated cost."""
        candidates: dict[str, float] = {
            NestedLoopJoin.name: self._cost.nested_loop_join(int(probe_size),
                                                             int(indexed_size)),
            IndexNestedLoopJoin.name: self._cost.index_nested_loop_join(
                int(probe_size), int(indexed_size), estimated_output),
            RTreeJoin.name: self._cost.rtree_join(int(probe_size), int(indexed_size),
                                                  estimated_output),
        }
        if dimension == 2:
            candidates[PlaneSweepJoin.name] = self._cost.plane_sweep_join(
                int(probe_size), int(indexed_size), estimated_output)
        best = min(candidates, key=candidates.get)
        return best, candidates[best]

    # -- planning -----------------------------------------------------------------------------

    def plan_join(self, query: JoinQuery) -> JoinPlan:
        """The cheapest left-deep plan for the query under estimated costs.

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
        best_plan: JoinPlan | None = None
        for order in orders:
            plan = self._cost_order(order, cache)
            if best_plan is None or plan.estimated_cost < best_plan.estimated_cost:
                best_plan = plan
        assert best_plan is not None
        return best_plan

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
            estimated_output = intermediate_cardinality * len(next_relation) * selectivity
            operator, cost = self.choose_operator(
                intermediate_cardinality, len(next_relation), estimated_output,
                dimension=next_relation.dimension,
            )
            plan.steps.append(PlannedJoin(
                left=relations[step_index - 1].name if step_index == 1 else "<intermediate>",
                right=next_relation.name,
                operator=operator,
                estimated_cardinality=estimated_output,
                estimated_cost=cost,
            ))
            plan.estimated_cost += cost
            intermediate_cardinality = max(estimated_output, 0.0)
        plan.estimated_cardinality = intermediate_cardinality
        return plan

    # -- execution --------------------------------------------------------------------------------

    def execute_plan(self, plan: JoinPlan, *, closed: bool = False) -> PlanExecution:
        """Execute a left-deep plan exactly and report its true cost."""
        relations = [self._catalog.get(name) for name in plan.order]
        if any(len(r) == 0 for r in relations):
            return PlanExecution(plan=plan, cardinality=0, comparisons=0)

        first = relations[0].boxes()
        # Partial results are represented by their running intersection boxes.
        current_lows = first.lows.copy()
        current_highs = first.highs.copy()
        comparisons = 0

        for step_index in range(1, len(relations)):
            next_boxes = relations[step_index].boxes()
            index = GridIndex(next_boxes, cells_per_dim=32)
            comparisons += len(next_boxes)
            new_lows: list[np.ndarray] = []
            new_highs: list[np.ndarray] = []
            for row in range(current_lows.shape[0]):
                probe = BoxSet(current_lows[row][None, :], current_highs[row][None, :],
                               validate=False)
                matches = index.query(probe, closed=closed)
                comparisons += int(index.candidates(probe).size) + 1
                for match in matches:
                    lo = np.maximum(current_lows[row], next_boxes.lows[match])
                    hi = np.minimum(current_highs[row], next_boxes.highs[match])
                    new_lows.append(lo)
                    new_highs.append(hi)
            if not new_lows:
                return PlanExecution(plan=plan, cardinality=0, comparisons=comparisons)
            current_lows = np.array(new_lows, dtype=np.int64)
            current_highs = np.array(new_highs, dtype=np.int64)

        return PlanExecution(plan=plan, cardinality=current_lows.shape[0],
                             comparisons=comparisons)
