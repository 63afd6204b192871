"""A catalog of named spatial relations sharing one domain."""

from __future__ import annotations

from typing import Iterator

from repro.core.domain import Domain
from repro.engine.relation import SpatialRelation
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet


class Catalog:
    """Creates and looks up :class:`SpatialRelation` objects."""

    def __init__(self, domain: Domain) -> None:
        self._domain = domain
        self._relations: dict[str, SpatialRelation] = {}

    @property
    def domain(self) -> Domain:
        return self._domain

    def create(self, name: str, *, boxes: BoxSet | None = None) -> SpatialRelation:
        """Create a new relation; fails if the name is taken."""
        if name in self._relations:
            raise EngineError(f"relation {name!r} already exists")
        relation = SpatialRelation(name, self._domain, boxes=boxes)
        self._relations[name] = relation
        return relation

    def get(self, name: str) -> SpatialRelation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise EngineError(f"relation {name!r} does not exist") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[SpatialRelation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        return sorted(self._relations)
