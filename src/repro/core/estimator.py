"""One contract for the eight estimator families.

An atomic sketch is a linear projection of its input stream (Sections 3-4:
every counter is a sum of xi products over the objects of one input), so a
shard merge, a delta-refreshed view, a router's reduce over worker partials
and a snapshot restore are the same operation — per-side counter tensors
added or copied.  :class:`SketchEstimator` says that once.  A family
*declares* its inputs as :class:`Side` values (name, aliases, the keys its
state has always used, point or box input), prepares coordinates in
:meth:`SketchEstimator._prepare` and names any extra value two estimators
must agree on in :meth:`SketchEstimator._compatibility`; the base owns
streaming updates, merging, the state form, zero-counter companions, delta
application, table pre-payment, the no-data guard and the estimate path.
The layers above (``repro.service``, ``repro.cluster``) call this contract
and know nothing of a family's attribute names.

Every estimate — scalar, batch, a service's mixed dispatch, a router's
reduce — is one path: :meth:`SketchEstimator.check_queries` checks the
request once and gives each row its verdict,
:meth:`SketchEstimator.lower` compiles it into one
:class:`~repro.core.program.SketchProgram` per name, and a
:class:`~repro.core.program.ProgramExecutor` runs them.  ``estimate(q)`` is
``estimate_batch([q])[0]``.

State has one form: each bank's counter tensor plus its stacked xi
coefficient tensor (:meth:`repro.core.atomic.SketchBank.state_dict`) — what
binary snapshots store and binary worker links carry.  A JSON hop renders
the tensors as nested lists, which ``load_state_dict`` also accepts.

:class:`QuerylessProgramEstimator` is the check and the lowering shared by
the families whose estimates take no query.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from repro.core.atomic import Letter, SketchBank, Word
from repro.core.boosting import BoostingPlan, split_instances
from repro.core.domain import Domain
from repro.core.program import CounterRef, ProgramTerm, SketchProgram, default_executor
from repro.core.result import EstimateResult
from repro.errors import (
    DomainError,
    EstimationError,
    MergeCompatibilityError,
    QueryError,
    SketchConfigError,
)
from repro.geometry.boxset import BoxSet

__all__ = ["Side", "SketchEstimator", "QuerylessProgramEstimator"]

#: What ``_prepare`` returns: the coordinates a bank sketches, plus optional
#: per-letter overrides (see :meth:`repro.core.atomic.SketchBank.insert`).
Prepared = tuple[BoxSet, Mapping[Letter, BoxSet] | None]


@dataclass(frozen=True)
class Side:
    """One input of an estimator family.

    ``state_key`` / ``count_key`` are the keys the side's bank and
    cardinality have in ``state_dict`` (and so in every snapshot written so
    far); ``points`` marks a side that takes points, which it is given as
    degenerate boxes (``lo == hi`` in every dimension).
    """

    name: str
    state_key: str
    count_key: str
    aliases: tuple[str, ...] = ()
    points: bool = False

    def refusal(self, boxes: BoxSet) -> str | None:
        """Why the side cannot take ``boxes`` (``None``: it can): a point
        side refuses a box with ``lo != hi``."""
        if self.points and not np.array_equal(boxes.lows, boxes.highs):
            return (f"side {self.name!r} takes points: every box needs "
                    f"lo == hi (a degenerate box)")
        return None


class SketchEstimator:
    """Base of every estimator family (see the module docstring).

    The constructor builds one :class:`~repro.core.atomic.SketchBank` per
    declared side — ``words[i]`` over ``sketch_domain`` for ``SIDES[i]`` —
    all over the *same* xi families and counter layout, as the paper's
    estimators require.
    """

    #: The family's inputs, in state and estimate order.
    SIDES: ClassVar[tuple[Side, ...]] = ()
    #: The :meth:`_compatibility` values that ``state_dict`` carries.
    STATE_COMPAT: ClassVar[tuple[str, ...]] = ()
    #: Whether an estimate takes a query rectangle (else a result count).
    QUERYABLE: ClassVar[bool] = False

    def __init__(self, domain: Domain, num_instances: int, *, seed,
                 boosting: BoostingPlan | None, sketch_domain: Domain,
                 words: Sequence[Sequence[Word]],
                 bands: Sequence[Sequence[int]] | None = None) -> None:
        if num_instances < 1:
            raise SketchConfigError("at least one atomic-sketch instance is required")
        self._domain = domain
        self._num_instances = int(num_instances)
        self._plan = boosting
        first = SketchBank(sketch_domain, words[0], num_instances, seed=seed,
                           bands=bands)
        banks = [first] + [first.companion(side_words) for side_words in words[1:]]
        self._banks: dict[str, SketchBank] = {
            side.name: bank for side, bank in zip(self.SIDES, banks)}
        self._cardinality: dict[str, int] = {side.name: 0 for side in self.SIDES}
        # Compiled program terms hold CounterRefs to this estimator's own
        # banks: valid while the banks are mutated in place (updates,
        # merges, restores), dropped wherever they are replaced (_rebound).
        self._terms: tuple[ProgramTerm, ...] | None = None

    # -- introspection ------------------------------------------------------------

    @property
    def domain(self) -> Domain:
        """The original (untransformed) data domain."""
        return self._domain

    @property
    def dimension(self) -> int:
        return self._domain.dimension

    @property
    def num_instances(self) -> int:
        return self._num_instances

    @property
    def boosting_plan(self) -> BoostingPlan:
        return self._plan or split_instances(self._num_instances)

    @classmethod
    def resolve_side(cls, side: str) -> Side:
        """The declared :class:`Side` a name or alias refers to."""
        for declared in cls.SIDES:
            if side == declared.name or side in declared.aliases:
                return declared
        raise SketchConfigError(
            f"{cls.__name__} has sides "
            f"{tuple(declared.name for declared in cls.SIDES)}, not {side!r}")

    def side_bank(self, side: str) -> SketchBank:
        """The bank that sketches one input."""
        return self._banks[self.resolve_side(side).name]

    # -- what a family fills in ---------------------------------------------------

    def _prepare(self, side: str, boxes: BoxSet) -> Prepared:
        """Coordinates actually sketched for an update of ``side``."""
        return boxes, None

    def _compatibility(self) -> dict[str, Any]:
        """Values, beyond the banks' own, two mergeable estimators share."""
        return {}

    # -- updates ------------------------------------------------------------------

    def update(self, side: str, boxes: BoxSet, weight: float = 1.0) -> None:
        """Add ``weight`` copies of every object to one input (``-1`` deletes)."""
        if not float(weight).is_integer():
            raise SketchConfigError(
                f"an estimator update needs a whole-number weight, got {weight!r}")
        declared = self.resolve_side(side)
        refusal = declared.refusal(boxes)
        if refusal is not None:
            raise DomainError(refusal)
        name = declared.name
        prepared, overrides = self._prepare(name, boxes)
        self._banks[name].insert(prepared, weight=weight, letter_boxes=overrides)
        self._cardinality[name] += int(weight) * len(boxes)

    def prepay_tables(self) -> None:
        """Build every bank's xi tables ahead of its data
        (:meth:`repro.core.atomic.SketchBank.prepay_tables`)."""
        for bank in self._banks.values():
            bank.prepay_tables()

    # -- composition --------------------------------------------------------------

    def _check_compatible(self, other: "SketchEstimator") -> None:
        """Same family, same declared values; the banks check themselves."""
        if type(other) is not type(self):
            raise MergeCompatibilityError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}")
        theirs = other._compatibility()
        for key, mine in self._compatibility().items():
            if theirs[key] != mine:
                raise MergeCompatibilityError(
                    f"cannot merge {type(self).__name__}s with different {key}")

    def merge(self, other: "SketchEstimator") -> None:
        """Fold another estimator over a disjoint partition into this one.

        Sketches are linear, so merging the per-side banks of two estimators
        built from the same spec yields exactly the estimator that would
        have summarised the union of both partitions.  Anything else raises
        :class:`~repro.errors.MergeCompatibilityError` before a counter moves.
        """
        self._check_compatible(other)
        for name, bank in self._banks.items():
            bank.check_merge_compatible(other._banks[name])
        for name, bank in self._banks.items():
            bank.merge(other._banks[name])
            self._cardinality[name] += other._cardinality[name]

    def _rebound(self, banks: dict[str, SketchBank],
                 cardinality: dict[str, int]) -> "SketchEstimator":
        """A copy of this estimator over other banks; configuration —
        domain, plan, transforms, pair terms — is immutable and shared."""
        clone = copy.copy(self)
        clone._banks = banks
        clone._cardinality = cardinality
        clone._terms = None
        return clone

    def companion(self) -> "SketchEstimator":
        """A zero-counter estimator of the same spec, aliasing the xi families.

        What delta trackers and the cluster's partial reduce start from:
        building each with a fresh seeded draw would cost
        O(instances x levels) per call and give it sign tables of its own.
        Compatibility is still checked by value wherever the companion is
        merged or loaded.
        """
        return self._rebound(
            {name: bank.companion() for name, bank in self._banks.items()},
            dict.fromkeys(self._cardinality, 0))

    def with_delta(self, delta: "SketchEstimator") -> "SketchEstimator":
        """A new estimator equal to ``self + delta``; neither input is touched.

        Every bank is a :meth:`~repro.core.atomic.SketchBank.clone_with_delta`
        clone — one fused counter add, xi families aliased — so the result
        is bit-identical to a from-scratch merge and reads the sign tables
        this estimator's families built.
        """
        self._check_compatible(delta)
        return self._rebound(
            {name: bank.clone_with_delta(delta._banks[name])
             for name, bank in self._banks.items()},
            {name: count + delta._cardinality[name]
             for name, count in self._cardinality.items()})

    # -- persistence --------------------------------------------------------------

    def state_dict(self, *, copy: bool = True) -> dict:
        """Compatibility values, every side's bank state, every side's count
        (``copy=False``: the live counter tensors, see the bank's)."""
        compatibility = self._compatibility()
        state: dict = {key: compatibility[key] for key in self.STATE_COMPAT}
        for side in self.SIDES:
            state[side.state_key] = self._banks[side.name].state_dict(copy=copy)
        for side in self.SIDES:
            state[side.count_key] = self._cardinality[side.name]
        return state

    def load_state_dict(self, state: Mapping, *, copy: bool = True) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        The estimator must have been built with the same configuration.
        ``copy=False`` adopts read-only counter tensors (memory-mapped
        snapshot views) without copying.
        """
        compatibility = self._compatibility()
        for key in self.STATE_COMPAT:
            mine = compatibility[key]
            if type(mine)(state[key]) != mine:
                raise MergeCompatibilityError(
                    f"snapshot was taken with a different {key}")
        for side in self.SIDES:
            self._banks[side.name].load_state_dict(state[side.state_key], copy=copy)
        for side in self.SIDES:
            self._cardinality[side.name] = int(state[side.count_key])

    def _require_data(self) -> None:
        if not any(self._cardinality.values()) and \
                not any(bank.num_updates for bank in self._banks.values()):
            raise EstimationError("estimate requested before any data was inserted, "
                                  "or after all of it was deleted")

    # -- estimation: the one path -------------------------------------------------

    def check_queries(self, queries) -> tuple[BoxSet | int, dict[int, QueryError]]:
        """The one check of an estimate request: a verdict per row.

        Returns what passed — for a queryable family its query rectangles
        as one box set in sketch coordinates, one row per passing query;
        for a query-less family the result count — and the
        :class:`~repro.errors.QueryError` of every refused row, keyed by
        its position in the request.  A request with no rows to judge (a
        count for a range, a negative count) raises its ``QueryError``.
        """
        raise NotImplementedError

    def _lower(self, queries) -> list[SketchProgram]:
        """Programs for a checked, non-empty request."""
        raise NotImplementedError

    def lower(self, queries) -> list[SketchProgram]:
        """Compile an estimate request into sketch programs.

        Every estimate takes this path: the request is checked once
        (:meth:`check_queries`), the first refused row raises, and the
        rest compiles (:meth:`lower_checked`).
        """
        checked, refused = self.check_queries(queries)
        if refused:
            raise refused[min(refused)]
        return self.lower_checked(checked)

    def lower_checked(self, checked) -> list[SketchProgram]:
        """Programs for what :meth:`check_queries` passed: none for an empty
        request, else the estimator's one program — run on a
        :class:`~repro.core.program.ProgramExecutor`, it expands to one
        result per query, in order, each boosted by :attr:`boosting_plan`."""
        if not (checked if isinstance(checked, int) else len(checked)):
            return []
        self._require_data()
        return self._lower(checked)

    def estimate_batch(self, queries) -> list[EstimateResult]:
        """One boosted estimate per query (see :meth:`check_queries`), each
        owning its arrays."""
        return default_executor().run(self.lower(queries))

    def estimate(self, query=None) -> EstimateResult:
        """One boosted estimate: ``estimate_batch([query])[0]``."""
        return self.estimate_batch([query])[0]


class QuerylessProgramEstimator(SketchEstimator):
    """The families whose estimates take no query argument.

    The paired joins, the epsilon join and the containment join share one
    estimator random variable, ``Z = sum of c * X_w * Y_w'`` over pairs of
    words: a family is its ``combos``, an ordered mapping from (word of
    ``SIDES[0]``, word of ``SIDES[1]``) to the coefficient ``c``.  Each
    side's bank sketches the words its combos name, sorted by ``str``; the
    program has one term per combo, in combo order.  A request is a result
    count, and every result reads the same per-instance values.
    """

    def __init__(self, domain: Domain, num_instances: int, *, seed,
                 boosting: BoostingPlan | None, sketch_domain: Domain,
                 combos: Mapping[tuple[Word, Word], float]) -> None:
        self._combos = dict(combos)
        super().__init__(
            domain, num_instances, seed=seed, boosting=boosting,
            sketch_domain=sketch_domain,
            words=[sorted({pair[side] for pair in self._combos}, key=str)
                   for side in (0, 1)])

    @property
    def left_count(self) -> int:
        """Current cardinality of the first input."""
        return self._cardinality[self.SIDES[0].name]

    @property
    def right_count(self) -> int:
        """Current cardinality of the second input."""
        return self._cardinality[self.SIDES[1].name]

    def _program_terms(self) -> tuple[ProgramTerm, ...]:
        """One term per (left word, right word) combo, in combo order."""
        left, right = (self._banks[side.name] for side in self.SIDES)
        return tuple(
            ProgramTerm(coefficient, counters=(CounterRef(left, left_word),
                                               CounterRef(right, right_word)))
            for (left_word, right_word), coefficient in self._combos.items())

    def check_queries(self, queries) -> tuple[int, dict[int, QueryError]]:
        """A count, or a sequence with one ``None`` entry per result."""
        if isinstance(queries, (int, np.integer)):
            if queries < 0:
                raise QueryError("a result count must be non-negative")
            return int(queries), {}
        if queries is None:
            raise QueryError("a batch estimate needs a query list or a count")
        entries = list(queries)
        refused = {row: QueryError("this family takes no query argument; pass "
                                   "a count or None entries")
                   for row, entry in enumerate(entries) if entry is not None}
        return len(entries) - len(refused), refused

    def _lower(self, count: int) -> list[SketchProgram]:
        """One program for the whole request: every result shares the same
        per-instance values, so ``replicas`` carries the count."""
        if self._terms is None:
            self._terms = self._program_terms()
        return [SketchProgram(
            terms=self._terms,
            num_instances=self._num_instances,
            plan=self.boosting_plan,
            left_count=self.left_count,
            right_count=self.right_count,
            replicas=count,
        )]
