"""Spatial relations: named, mutable collections of hyper-rectangles."""

from __future__ import annotations

import numpy as np

from repro.core.domain import Domain
from repro.errors import EngineError
from repro.geometry.boxset import BoxSet


class SpatialRelation:
    """A named spatial relation over a fixed domain.

    The relation stores its objects in NumPy arrays and supports appending
    and deleting batches; every mutation is also reported to the listeners
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
        """Register an object with ``on_insert(relation, boxes)`` / ``on_delete``."""
        self._listeners.append(listener)

    # -- mutations -----------------------------------------------------------------------

    def insert(self, boxes: BoxSet) -> None:
        """Append a batch of objects."""
        self._domain.validate_boxes(boxes, what=f"objects inserted into {self._name}")
        self._lows = np.vstack([self._lows, boxes.lows])
        self._highs = np.vstack([self._highs, boxes.highs])
        for listener in self._listeners:
            listener.on_insert(self, boxes)

    def delete(self, boxes: BoxSet) -> int:
        """Delete objects equal to the given boxes (one occurrence each).

        A box asked for ``k`` times removes its first ``k`` copies in
        relation order.  Returns the number of objects removed; asking for
        more copies of a box than the relation holds raises
        :class:`~repro.errors.EngineError` naming the first such row of the
        batch, and changes nothing.
        """
        self._domain.validate_boxes(boxes, what=f"objects deleted from {self._name}")
        rows = np.hstack([self._lows, self._highs])
        batch = np.hstack([boxes.lows, boxes.highs])
        # Only stored rows whose every coordinate occurs in the batch can match.
        held = np.flatnonzero(np.logical_and.reduce(
            [np.isin(rows[:, axis], batch[:, axis]) for axis in range(rows.shape[1])]))
        _, ids = np.unique(np.vstack([rows[held], batch]), axis=0, return_inverse=True)
        stored, asked = ids[:len(held)].reshape(-1), ids[len(held):].reshape(-1)
        copies_held = np.bincount(stored, minlength=len(ids))
        missing = np.flatnonzero(_occurrence_ranks(asked) >= copies_held[asked])
        if missing.size:
            row = missing[0]
            raise EngineError(
                f"object {boxes.lows[row].tolist()}..{boxes.highs[row].tolist()} is not "
                f"present in relation {self._name}"
            )
        keep = np.ones(len(self), dtype=bool)
        keep[held] = _occurrence_ranks(stored) >= np.bincount(asked, minlength=len(ids))[stored]
        self._lows = self._lows[keep]
        self._highs = self._highs[keep]
        for listener in self._listeners:
            listener.on_delete(self, boxes)
        return len(boxes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpatialRelation(name={self._name!r}, n={len(self)}, d={self.dimension})"


def _occurrence_ranks(ids: np.ndarray) -> np.ndarray:
    """How many equal entries precede each entry: ``[7, 3, 7, 7]`` -> ``[0, 0, 1, 2]``."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    ranks = np.empty_like(ids)
    ranks[order] = np.arange(len(ids)) - np.searchsorted(ordered, ordered)
    return ranks
