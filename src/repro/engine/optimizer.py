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
from typing import Callable

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.query import JoinQuery, PlannedJoin
from repro.engine.relation import SpatialRelation
from repro.engine.synopses import SynopsisManager
from repro.geometry.predicates import overlaps

#: Running intersection boxes probed against the next relation at once.
_PROBE_CHUNK = 256

#: A pair's estimated selectivity, the same whichever way round it is asked for.
_Selectivity = Callable[[SpatialRelation, SpatialRelation], float]


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


class Optimizer:
    """Plans and executes spatial join queries using sketch-based estimates."""

    #: Exhaustively enumerate join orders up to this many relations.
    _ENUMERATION_LIMIT = 5

    def __init__(self, catalog: Catalog, synopses: SynopsisManager) -> None:
        self._catalog = catalog
        self._synopses = synopses

    # -- selectivity estimates -----------------------------------------------------------

    def _pair_selectivities(self, relations: list[SpatialRelation]) -> _Selectivity:
        """Every pair's estimated selectivity, clamped to [0, 1]: one batched
        probe for all pairs (an empty side estimates 0), read back by the
        unordered pair of names."""
        pairs = list(itertools.combinations(relations, 2))
        cardinalities = self._synopses.estimated_join_cardinalities(pairs)
        table = {frozenset((left.name, right.name)):
                 float(min(1.0, cardinality / max(1, len(left) * len(right))))
                 for (left, right), cardinality in zip(pairs, cardinalities)}
        return lambda left, right: table[frozenset((left.name, right.name))]

    def estimated_pair_selectivity(self, left: SpatialRelation,
                                   right: SpatialRelation) -> float:
        """Estimated join selectivity of a relation pair (clamped to [0, 1])."""
        return self._pair_selectivities([left, right])(left, right)

    # -- planning -----------------------------------------------------------------------------

    def plan_join(self, query: JoinQuery) -> JoinPlan:
        """The left-deep plan with the least estimated C_out.

        Every pair's selectivity is read once, in one batched probe, and
        shared by every candidate order; queries above the enumeration
        limit get one greedy order.
        """
        relations = [self._catalog.get(name) for name in query.relations]
        selectivity = self._pair_selectivities(relations)
        if len(relations) > self._ENUMERATION_LIMIT:
            orders = [tuple(r.name for r in self._greedy_order(relations, selectivity))]
        else:
            orders = itertools.permutations(query.relations)
        return min((self.cost_order(order, selectivity) for order in orders),
                   key=lambda plan: plan.estimated_cost)

    @staticmethod
    def _greedy_order(relations: list[SpatialRelation],
                      selectivity: _Selectivity) -> list[SpatialRelation]:
        """Greedy order: start from the most selective pair, then smallest blow-up."""
        order = list(min(itertools.combinations(relations, 2), key=lambda pair:
                         selectivity(*pair) * len(pair[0]) * len(pair[1])))
        remaining = [r for r in relations if r not in order]
        while remaining:
            def blow_up(candidate: SpatialRelation) -> float:
                product = 1.0
                for placed in order:
                    product *= selectivity(placed, candidate)
                return product * len(candidate)

            next_relation = min(remaining, key=blow_up)
            order.append(next_relation)
            remaining.remove(next_relation)
        return order

    def cost_order(self, order: tuple[str, ...],
                   selectivity: _Selectivity | None = None) -> JoinPlan:
        """The plan of one left-deep order, costed by its estimated C_out
        (``selectivity`` as :meth:`plan_join` reads it; probed when
        omitted)."""
        plan = JoinPlan(order=order)
        relations = [self._catalog.get(name) for name in order]
        if selectivity is None:
            selectivity = self._pair_selectivities(relations)
        intermediate_cardinality = float(len(relations[0]))
        for step_index in range(1, len(relations)):
            next_relation = relations[step_index]
            product = 1.0
            for placed in relations[:step_index]:
                product *= selectivity(placed, next_relation)
            intermediate_cardinality *= len(next_relation) * product
            plan.steps.append(PlannedJoin(
                left=relations[step_index - 1].name if step_index == 1 else "<intermediate>",
                right=next_relation.name,
                estimated_cardinality=intermediate_cardinality,
            ))
        plan.estimated_cost = sum(step.estimated_cardinality for step in plan.steps)
        plan.estimated_cardinality = intermediate_cardinality
        return plan

    # -- execution --------------------------------------------------------------------------------

    def execute_plan(self, plan: JoinPlan) -> PlanExecution:
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
                    boxes.highs[None, :, :]), axis=2))
                new_lows.append(np.maximum(lo[rows], boxes.lows[matches]))
                new_highs.append(np.minimum(hi[rows], boxes.highs[matches]))
            lows = np.concatenate(new_lows)
            highs = np.concatenate(new_highs)
            counts.append(len(lows))
        return PlanExecution(plan=plan, step_cardinalities=tuple(counts))
