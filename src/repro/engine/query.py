"""Logical query descriptions consumed by the optimizer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class JoinQuery:
    """A (possibly multi-way) spatial overlap join over named relations.

    The join graph is implicit: every pair of adjacent relations in the
    chosen join order is joined with the overlap predicate.
    """

    relations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.relations) < 2:
            raise ValueError("a join query needs at least two relations")
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("a relation may appear only once in a join query")


@dataclass
class PlannedJoin:
    """One binary join step of a left-deep plan and its estimated output."""

    left: str
    right: str
    estimated_cardinality: float
