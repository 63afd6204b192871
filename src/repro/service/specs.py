"""Estimator specifications shared by every shard of a sketch service.

A sharded sketch store keeps one estimator *per shard* for every registered
name.  All shard copies must be built from the exact same specification —
family, domain, instance count and seed — because only sketches over shared
xi families are merge-compatible (see
:meth:`repro.core.atomic.SketchBank.merge`).  :class:`EstimatorSpec` is that
specification: an immutable, JSON-serialisable value object that can build a
fresh estimator on demand.

The :data:`FAMILIES` registry covers all eight estimator families of the
library and records, per family, the estimator class and the options a
spec may pass to its constructor.  Which sides exist, their aliases,
whether a side takes points and whether an estimate takes a query is what
the class itself declares (:class:`repro.core.estimator.SketchEstimator`);
the service layer calls that contract (``update`` / ``merge`` /
``state_dict`` / ``companion`` / ``with_delta`` / ``lower``) and this
table, so a new estimator family only needs one registry entry to become
servable.

Every update is a :class:`~repro.geometry.boxset.BoxSet`: a side that
takes points takes them as degenerate boxes (``lo == hi``), and
:meth:`repro.core.estimator.Side.refusal` is the one rule that refuses
any other box, read by :func:`check_update` and by the estimator's own
``update`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.domain import Domain, EndpointTransform
from repro.core.dyadic import pruned_max_levels, range_max_levels
from repro.core.epsilon_join import EpsilonJoinEstimator
from repro.core.estimator import SketchEstimator
from repro.core.join_containment import ContainmentJoinEstimator
from repro.core.join_extended import ExtendedOverlapJoinEstimator
from repro.core.join_hyperrect import ENDPOINT_POLICIES, SpatialJoinEstimator
from repro.core.program import SketchProgram
from repro.core.range_query import RangeQueryEstimator
from repro.errors import DimensionalityError, QueryError, ServiceError, SketchConfigError
from repro.geometry.boxset import BoxSet

UPDATE_KINDS = ("insert", "delete")


@dataclass(frozen=True)
class FamilyInfo:
    """Registry metadata for one estimator family.

    Sides, their aliases, which of them take points and whether estimates
    take a query are what the estimator class declares
    (:attr:`repro.core.estimator.SketchEstimator.SIDES` / ``QUERYABLE``);
    a spec's options are that class's constructor keywords of the same name.
    Several families may build one class: ``dimension`` is the one domain
    dimension a family takes (``None``: any), and ``fixed`` the
    constructor keywords it always passes.
    """

    name: str
    estimator: type[SketchEstimator]
    option_names: frozenset = frozenset()
    required_options: frozenset = frozenset()
    dimension: int | None = None
    fixed: tuple[tuple[str, Any], ...] = ()

    @property
    def queryable(self) -> bool:
        return self.estimator.QUERYABLE

    @property
    def sides(self) -> tuple[str, ...]:
        return tuple(side.name for side in self.estimator.SIDES)

    def resolve_side(self, side: str) -> str:
        try:
            return self.estimator.resolve_side(side).name
        except SketchConfigError:
            raise ServiceError(
                f"family {self.name!r} has sides {self.sides}, not {side!r}"
            ) from None


_POLICY = frozenset({"endpoint_policy"})

FAMILIES: dict[str, FamilyInfo] = {info.name: info for info in (
    FamilyInfo("interval", SpatialJoinEstimator, option_names=_POLICY, dimension=1),
    FamilyInfo("rectangle", SpatialJoinEstimator, option_names=_POLICY, dimension=2),
    FamilyInfo("hyperrect", SpatialJoinEstimator, option_names=_POLICY),
    FamilyInfo("extended_overlap", ExtendedOverlapJoinEstimator),
    FamilyInfo("common_endpoint", SpatialJoinEstimator,
               fixed=(("endpoint_policy", "explicit"),)),
    FamilyInfo("containment", ContainmentJoinEstimator),
    FamilyInfo("epsilon", EpsilonJoinEstimator,
               option_names=frozenset({"epsilon"}),
               required_options=frozenset({"epsilon"})),
    FamilyInfo("range", RangeQueryEstimator, option_names=frozenset({"strict"})),
)}


def family_info(family: str) -> FamilyInfo:
    try:
        return FAMILIES[family]
    except KeyError as exc:
        raise ServiceError(
            f"unknown estimator family {family!r}; known families: "
            f"{', '.join(sorted(FAMILIES))}"
        ) from exc


def _domain_levels(domain: Domain) -> tuple[int | None, ...]:
    """Per-dimension maxLevel restrictions, ``None`` where unrestricted."""
    return tuple(
        None if dyadic.max_level == dyadic.height else dyadic.max_level
        for dyadic in domain.dyadics
    )


@dataclass(frozen=True)
class EstimatorSpec:
    """Everything needed to (re)build one merge-compatible estimator.

    Two estimators built from equal specs are guaranteed merge-compatible:
    the shared seed makes every shard draw identical xi families, which is
    what lets a sharded store combine shard sketches exactly.
    """

    family: str
    sizes: tuple[int, ...]
    num_instances: int
    seed: int = 0
    max_levels: tuple[int | None, ...] | None = None
    options: tuple[tuple[str, Any], ...] = ()
    #: The counter cells' level-band map: true is the identity (one cell per
    #: word and level tuple), false one band — ``range`` over 1-D / 2-D only;
    #: what every new registration of one gets (:meth:`with_layout`).
    split_levels: bool = False

    def __post_init__(self) -> None:
        info = family_info(self.family)
        if self.num_instances < 1:
            raise ServiceError("an estimator spec needs at least one instance")
        if not self.sizes or any(int(s) < 1 for s in self.sizes):
            raise ServiceError(f"invalid domain sizes {self.sizes!r}")
        if self.max_levels is not None and len(self.max_levels) != len(self.sizes):
            raise ServiceError("max_levels must match the number of dimensions")
        names = [name for name, _ in self.options]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate options in {names}")
        unknown = set(names) - set(info.option_names)
        if unknown:
            raise ServiceError(
                f"family {self.family!r} does not accept options {sorted(unknown)}"
            )
        missing = set(info.required_options) - set(names)
        if missing:
            raise ServiceError(
                f"family {self.family!r} requires options {sorted(missing)}"
            )
        if self.split_levels and (self.family != "range" or len(self.sizes) > 2):
            raise ServiceError(
                "level-split counters are for range estimators over 1-D or 2-D domains")
        policy = self.option("endpoint_policy", None)
        if policy is not None and policy not in ENDPOINT_POLICIES:
            raise ServiceError(
                f"endpoint_policy must be one of {ENDPOINT_POLICIES}, got {policy!r}"
            )

    # -- construction -------------------------------------------------------------

    @classmethod
    def create(cls, family: str, domain: Domain | Sequence[int] | int,
               num_instances: int, *, seed: int = 0, **options: Any) -> "EstimatorSpec":
        """Build a spec from a domain (or plain sizes) and keyword options.

        A :class:`Domain` carries its own level restrictions; plain sizes
        get the default ones (:meth:`with_pruned_levels`) written into the
        spec.  Either way the spec takes the default counter layout
        (:meth:`with_layout`).
        """
        if isinstance(domain, Domain):
            sizes = domain.requested_sizes
            levels = _domain_levels(domain)
            max_levels = None if all(level is None for level in levels) else levels
        else:
            if isinstance(domain, (int, np.integer)):
                domain = (int(domain),)
            sizes = tuple(int(s) for s in domain)
            max_levels = None
        spec = cls(
            family=family,
            sizes=sizes,
            num_instances=int(num_instances),
            seed=int(seed),
            max_levels=max_levels,
            options=tuple(sorted(options.items())),
        )
        if not isinstance(domain, Domain):
            spec = spec.with_pruned_levels()
        return spec.with_layout()

    def with_pruned_levels(self) -> "EstimatorSpec":
        """This (validated) spec with the default level caps written in.

        A ``range`` name stops, per dimension, where data and query covers
        together are least noisy under uniform boxes
        (:func:`~repro.core.dyadic.range_max_levels`); a join has no query
        side and takes the lowest cap that leaves the worst-case cover no
        larger (:func:`~repro.core.dyadic.pruned_max_levels`).
        """
        rule = range_max_levels if self.family == "range" else pruned_max_levels
        return replace(self, max_levels=rule(self.sizes))

    def with_layout(self) -> "EstimatorSpec":
        """This spec with the counter layout a new registration gets:
        level-split for ``range`` over 1-D or 2-D, one cell per word
        otherwise.  Only stored state keeps one cell where this splits
        (:meth:`from_dict` without the key)."""
        return replace(self, split_levels=self.family == "range" and self.dimension <= 2)

    # -- accessors ----------------------------------------------------------------

    @property
    def info(self) -> FamilyInfo:
        return family_info(self.family)

    @property
    def dimension(self) -> int:
        return len(self.sizes)

    def option(self, name: str, default: Any = None) -> Any:
        return dict(self.options).get(name, default)

    def domain(self) -> Domain:
        return Domain(self.sizes, max_levels=self.max_levels)

    def build(self) -> SketchEstimator:
        """A fresh, empty estimator of this spec's family; a family bound
        to one dimension refuses a domain of another."""
        info = self.info
        if info.dimension not in (None, self.dimension):
            raise DimensionalityError(
                f"family {self.family!r} needs a {info.dimension}-dimensional "
                f"domain, got {self.dimension} dimensions")
        layout = {}
        if self.split_levels:    # the identity map over the domain a range sketches
            sketched = (EndpointTransform(self.domain()).expanded_domain
                        if self.option("strict", False) else self.domain())
            layout["bands"] = [range(dyadic.num_levels) for dyadic in sketched.dyadics]
        return info.estimator(self.domain(), num_instances=self.num_instances,
                              seed=self.seed, **dict(info.fixed), **dict(self.options),
                              **layout)

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as JSON; ``split_levels`` appears only when set, so a
        one-cell spec reads as it always has."""
        state = {
            "family": self.family,
            "sizes": list(self.sizes),
            "num_instances": self.num_instances,
            "seed": self.seed,
            "max_levels": None if self.max_levels is None else list(self.max_levels),
            "options": {name: value for name, value in self.options},
        }
        if self.split_levels:
            state["split_levels"] = True
        return state

    @classmethod
    def from_dict(cls, state: Mapping) -> "EstimatorSpec":
        split_levels = state.get("split_levels", False)
        if not isinstance(split_levels, bool):
            raise ServiceError("malformed estimator spec: split_levels must be "
                               f"true or false, got {split_levels!r}")
        try:
            max_levels = state.get("max_levels")
            return cls(
                family=str(state["family"]),
                sizes=tuple(int(s) for s in state["sizes"]),
                num_instances=int(state["num_instances"]),
                seed=int(state.get("seed", 0)),
                max_levels=None if max_levels is None else tuple(
                    None if level is None else int(level) for level in max_levels
                ),
                options=tuple(sorted(dict(state.get("options", {})).items())),
                split_levels=split_levels,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed estimator spec: {exc}") from exc


# -- update and estimate dispatch ---------------------------------------------------


def shrunk_sides(spec: EstimatorSpec) -> frozenset:
    """The sides whose boxes the spec's estimators shrink.

    :meth:`~repro.core.domain.EndpointTransform.transform_right` maps
    ``[lo, hi]`` to ``[3 lo + 1, 3 hi - 1]``, which is empty where ``lo ==
    hi``.  It takes a join's ``right`` under ``endpoint_policy="transform"``
    (the default of the families with that option), ``extended_overlap``'s
    ``right`` always, and a ``strict`` range's ``data``.
    """
    if spec.option("strict", False):
        return frozenset({"data"})
    if spec.family == "extended_overlap" or (
            "endpoint_policy" in spec.info.option_names
            and spec.option("endpoint_policy", "transform") == "transform"):
        return frozenset({"right"})
    return frozenset()


def check_update(spec: EstimatorSpec, side: str, kind: str,
                 boxes: BoxSet) -> str:
    """Refuse a batch the spec's estimators could not apply.

    The one check an update passes before it is logged, buffered or split
    between a fleet's owners: the side (an alias resolves to its declared
    name), the kind, degenerate boxes on a point side, the dimension, no
    lower endpoint above its upper one (a box set built with
    ``validate=False`` may carry one), every coordinate inside
    ``spec.domain()`` and no zero extent on a side the endpoint transform
    shrinks (:func:`shrunk_sides`).  Returns the resolved side.
    """
    info = spec.info
    side = info.resolve_side(side)
    if kind not in UPDATE_KINDS:
        raise ServiceError(f"update kind must be one of {UPDATE_KINDS}, got {kind!r}")
    if boxes.dimension != spec.dimension:
        raise ServiceError(f"family {spec.family!r}: boxes are {boxes.dimension}-"
                           f"dimensional, the domain is {spec.dimension}-dimensional")
    if (boxes.lows > boxes.highs).any():
        raise ServiceError(f"family {spec.family!r}: a box has a lower "
                           f"endpoint above its upper one")
    refusal = info.estimator.resolve_side(side).refusal(boxes)
    if refusal is not None:
        raise ServiceError(f"family {spec.family!r}: {refusal}")
    domain = spec.domain()
    if not domain.contains(boxes):
        raise ServiceError(f"family {spec.family!r}: boxes reach outside the "
                           f"domain {domain.sizes}")
    if side in shrunk_sides(spec) and (boxes.lows == boxes.highs).any():
        raise ServiceError(f"family {spec.family!r}: side {side!r} shrinks "
                           f"every box by the endpoint transform, so a box "
                           f"with lo == hi in some dimension would be empty")
    return side


def apply_update(spec: EstimatorSpec, estimator: SketchEstimator, side: str, kind: str,
                 boxes: BoxSet) -> None:
    """Route one batch of inserts or deletes into an estimator."""
    side = spec.info.resolve_side(side)
    if kind not in UPDATE_KINDS:
        raise ServiceError(f"update kind must be one of {UPDATE_KINDS}, got {kind!r}")
    estimator.update(side, boxes, 1.0 if kind == "insert" else -1.0)


def _refusal(spec: EstimatorSpec, exc: QueryError) -> ServiceError:
    """A query the family refuses, as the service reports it."""
    return ServiceError(f"family {spec.family!r}: {exc}")


def compile_programs(spec: EstimatorSpec, estimator: Any,
                     queries) -> list[SketchProgram]:
    """Lower one name's estimate request into sketch programs.

    :meth:`~repro.core.estimator.SketchEstimator.lower` — the one check
    and compile every estimate takes — with a request the family cannot
    take re-raised as a :class:`ServiceError` naming the family.  Programs
    of several names concatenate into one executor run, one result per
    query in request order.
    """
    try:
        return estimator.lower(queries)
    except QueryError as exc:
        raise _refusal(spec, exc) from None


def answer_requests(executor: Any, requests: Sequence[tuple[Any, Any]],
                    resolve) -> list:
    """Answer ``(key, query)`` requests in one executor run, each on its own.

    ``resolve(key)`` returns the ``(spec, estimator)`` a name's queries
    compile against.  Each key's queries are checked once
    (:meth:`~repro.core.estimator.SketchEstimator.check_queries`): a row
    the family refuses gets its own verdict, and the rest compile into
    the key's one program.  Everything that compiled then runs as one
    :meth:`~repro.core.program.ProgramExecutor.run`, and nothing runs when
    nothing compiled.  Returns one entry per request, in order: its
    result, or the exception its key's ``resolve``, its own check, or —
    for a row that passed the check — its key's compile raised.
    """
    groups: dict[Any, list[int]] = {}
    for index, (key, _) in enumerate(requests):
        groups.setdefault(key, []).append(index)
    results: list = [None] * len(requests)
    programs: list[SketchProgram] = []
    answered: list[int] = []
    for key, indices in groups.items():
        try:
            spec, estimator = resolve(key)
            try:
                checked, refused = estimator.check_queries(
                    [requests[index][1] for index in indices])
            except QueryError as exc:
                raise _refusal(spec, exc) from None
        except Exception as exc:  # the name's fetch or merge failed
            for index in indices:
                results[index] = exc
            continue
        passed = []
        for row, index in enumerate(indices):
            if row in refused:
                results[index] = _refusal(spec, refused[row])
            else:
                passed.append(index)
        try:
            programs += estimator.lower_checked(checked)
        except Exception as exc:  # the compile failed: no data yet, say
            for index in passed:
                results[index] = exc
            continue
        answered += passed
    if programs:
        for index, result in zip(answered, executor.run(programs)):
            results[index] = result
    return results
