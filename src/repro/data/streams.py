"""Update streams of inserts and deletes.

The paper emphasises that spatial sketches are maintained incrementally
under inserts *and* deletes and can therefore summarise streaming spatial
data.  :class:`UpdateStream` turns a dataset into a reproducible sequence
of update operations (a prefix of inserts followed by a mix of inserts and
deletes), which the estimators and the engine's synopsis manager consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.geometry.boxset import BoxSet


class UpdateKind(str, Enum):
    """The two kinds of stream operations."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class UpdateOperation:
    """One stream element: insert or delete a single box."""

    kind: UpdateKind
    box: BoxSet


class UpdateStream:
    """A reproducible insert/delete stream derived from a dataset.

    Parameters
    ----------
    boxes:
        The underlying objects.
    delete_fraction:
        Fraction of the *inserted* objects that are later deleted again.
    warmup_fraction:
        Fraction of the stream that is pure inserts before deletes may occur.
    seed:
        Seed for shuffling the operations.
    """

    def __init__(self, boxes: BoxSet, *, delete_fraction: float = 0.0,
                 warmup_fraction: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= delete_fraction <= 1.0:
            raise WorkloadError("delete_fraction must be in [0, 1]")
        if not 0.0 <= warmup_fraction <= 1.0:
            raise WorkloadError("warmup_fraction must be in [0, 1]")
        self._boxes = boxes
        self._delete_fraction = float(delete_fraction)
        self._warmup_fraction = float(warmup_fraction)
        self._seed = int(seed)

    def expected_length(self) -> int:
        """Number of operations the stream will produce."""
        deletes = int(round(self._delete_fraction * len(self._boxes)))
        return len(self._boxes) + deletes

    def final_state(self) -> BoxSet:
        """The dataset that remains after the whole stream has been applied."""
        order, deleted = self._plan()
        surviving = np.setdiff1d(order, deleted, assume_unique=False)
        if len(surviving) == 0:
            return BoxSet.empty(self._boxes.dimension)
        return self._boxes[np.sort(surviving)]

    def _plan(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self._seed)
        order = rng.permutation(len(self._boxes))
        num_deletes = int(round(self._delete_fraction * len(self._boxes)))
        deleted = rng.choice(order, size=num_deletes, replace=False) if num_deletes else \
            np.empty(0, dtype=np.int64)
        return order, deleted

    def __iter__(self) -> Iterator[UpdateOperation]:
        rng = np.random.default_rng(self._seed)
        order, deleted = self._plan()
        deleted_set = set(int(i) for i in deleted)

        warmup_count = int(round(self._warmup_fraction * len(order)))
        operations: list[tuple[UpdateKind, int]] = [
            (UpdateKind.INSERT, int(i)) for i in order[:warmup_count]
        ]
        tail: list[tuple[UpdateKind, int]] = [
            (UpdateKind.INSERT, int(i)) for i in order[warmup_count:]
        ]
        # Deletes may only be emitted after the corresponding insert; place a
        # delete immediately after a random later position by shuffling the
        # tail together with the delete operations of warmed-up objects.
        tail.extend((UpdateKind.DELETE, int(i)) for i in order[:warmup_count]
                    if int(i) in deleted_set)
        rng.shuffle(tail)
        inserted: set[int] = {index for _, index in operations}
        pending_deletes: list[int] = []
        for kind, index in tail:
            if kind is UpdateKind.INSERT:
                operations.append((kind, index))
                inserted.add(index)
                if index in deleted_set:
                    pending_deletes.append(index)
            else:
                operations.append((kind, index))
        # Deletes of objects inserted in the tail are appended at the end.
        operations.extend((UpdateKind.DELETE, index) for index in pending_deletes)

        for kind, index in operations:
            yield UpdateOperation(kind=kind, box=self._boxes[index])

    def batches(self, batch_size: int) -> Iterator[tuple[UpdateKind, BoxSet]]:
        """Group consecutive operations of the same kind into BoxSet batches."""
        if batch_size < 1:
            raise WorkloadError("batch_size must be positive")
        current_kind: UpdateKind | None = None
        current: list[BoxSet] = []
        for operation in self:
            if current_kind is None:
                current_kind = operation.kind
            if operation.kind is not current_kind or len(current) >= batch_size:
                if current:
                    yield current_kind, _concat(current)
                current_kind = operation.kind
                current = []
            current.append(operation.box)
        if current and current_kind is not None:
            yield current_kind, _concat(current)


def _concat(parts: list[BoxSet]) -> BoxSet:
    result = parts[0]
    for part in parts[1:]:
        result = result.concat(part)
    return result
