"""Spatial relations: named, mutable collections of hyper-rectangles."""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet


class SpatialRelation:
    """A named spatial relation over a fixed domain.

    The relation stores its objects in NumPy arrays and appends batches;
    every insert is also reported to the listeners
    the :class:`~repro.engine.synopses.SynopsisManager` registers (one per
    join sketch side), so synopses stay consistent with the data without
    rescanning it.
    """

    def __init__(self, name: str, domain: Domain, *, boxes: BoxSet | None = None) -> None:
        if not name:
            raise EngineError("a relation needs a non-empty name")
        self._name = name
        self._domain = domain
        self._lows = np.zeros((0, domain.dimension), dtype=np.int64)
        self._highs = np.zeros((0, domain.dimension), dtype=np.int64)
        self._listeners: list = []
        if boxes is not None and len(boxes):
            self.insert(boxes)

    # -- properties --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def dimension(self) -> int:
        return self._domain.dimension

    def __len__(self) -> int:
        return self._lows.shape[0]

    @property
    def cardinality(self) -> int:
        return len(self)

    def boxes(self) -> BoxSet:
        """A snapshot of the current contents."""
        if len(self) == 0:
            return BoxSet.empty(self.dimension)
        return BoxSet(self._lows.copy(), self._highs.copy(), validate=False)

    # -- listeners (synopsis maintenance) ----------------------------------------------

    def add_listener(self, listener) -> None:
        """Register an object with ``on_insert(relation, boxes)``."""
        self._listeners.append(listener)

    # -- mutations -----------------------------------------------------------------------

    def insert(self, boxes: BoxSet) -> None:
        """Append a batch of objects."""
        self._domain.validate_boxes(boxes, what=f"objects inserted into {self._name}")
        self._lows = np.vstack([self._lows, boxes.lows])
        self._highs = np.vstack([self._highs, boxes.highs])
        for listener in self._listeners:
            listener.on_insert(self, boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpatialRelation(name={self._name!r}, n={len(self)}, d={self.dimension})"

