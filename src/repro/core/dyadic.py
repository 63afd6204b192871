"""Dyadic decomposition of a finite integer domain (Section 3.1).

A domain ``N = {0, ..., n-1}`` with ``n = 2^h`` is partitioned, for every
level ``0 <= level <= h``, into ``2^(h-level)`` aligned intervals of length
``2^level``.  Level 0 intervals are the individual coordinates and the
single level-``h`` interval covers the whole domain.

Dyadic intervals are identified by *node ids* following the classic
segment-tree numbering: the root (whole domain) has id 0; the children of
node ``v`` are ``2v+1`` and ``2v+2``.  There are exactly ``2n - 1`` nodes.

Three operations from the paper are provided:

* :meth:`DyadicDomain.cover` — the dyadic cover ``D([a, b])`` of an interval
  (Lemma 2: at most ``2 log2 n`` intervals),
* :meth:`DyadicDomain.point_cover` — the dyadic point cover ``D([a])``
  (Lemma 3: exactly ``log2 n + 1`` intervals, one per level),
* the ``max_level`` restriction of Section 6.5, which disallows dyadic
  intervals longer than ``2^max_level``.  ``max_level = 0`` degenerates to
  the standard (non-dyadic) sketches of Equation (1).

Lemma 4 (a point lies in an interval iff the interval cover and the point
cover share exactly one dyadic interval) continues to hold under any
``max_level`` restriction, because the restricted cover is still a disjoint
partition of the interval and the restricted point cover still contains
every allowed dyadic interval covering the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from repro.errors import DomainError


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Element-wise ``int.bit_length`` for non-negative int64 arrays.

    ``frexp`` returns the base-2 exponent of the float64 value, which equals
    the bit length exactly for every integer below 2^53 — far beyond the
    2^31 node-id bound the sketches can address.
    """
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (and >= 1)."""
    if value <= 1:
        return 1
    return 1 << (int(value) - 1).bit_length()


def pruned_max_levels(sizes) -> tuple[int, ...]:
    """Per size, the lowest ``max_level`` that costs no worst-case cover.

    Every level above it only adds collisions (Section 6.5: all objects
    share the root, half of them each of its children) while
    :meth:`DyadicDomain.cover_sum_bound` is already no larger than with the
    full tree — the top two levels of any domain of 4 or more coordinates.
    """
    levels = []
    for size in sizes:
        full = DyadicDomain(size)
        bound = full.cover_sum_bound()
        levels.append(next(
            level for level in range(full.height + 1)
            if full.with_max_level(level).cover_sum_bound() <= bound))
    return tuple(levels)


def _quartic_sum(term, count: int):
    """``sum(term(j) for j in range(count))`` for a ``term`` that is a
    polynomial of degree at most 4 in ``j`` there: Newton's forward
    differences at ``j = 0..4`` times ``C(count, i + 1)``."""
    if count <= 5:
        return sum((term(j) for j in range(count)), 0)
    values, total = [term(j) for j in range(5)], 0
    for i in range(5):
        total = total + comb(count, i + 1) * values[0]
        values = [b - a for a, b in zip(values, values[1:])]
    return total


def range_level_scores(size: int) -> list[int]:
    """Per cap ``m = 0..height``, the ``N^2`` coefficient of a 1-d range
    estimate's per-instance variance under uniform data and query intervals,
    times ``T^3`` for the ``T = size (size + 1) / 2`` intervals (an integer).

    The estimate is ``Z = X_U Q_I + X_I Q_U`` over one 4-wise family, so the
    coefficient is ``sum p_U^2 E|cover(q)| + sum p_I^2 (m + 1) + 2 sum p_U
    p_I E|cover(q) & point_cover(q_hi)|``, where ``p_I(v)`` is the chance
    that a uniform interval's cover uses node ``v`` and ``p_U(v)`` that its
    upper endpoint falls in ``v`` (the last expectation is 1, Lemma 4).  A
    lower cap shrinks the data side's sums and grows the query's cover
    (Section 6.5's trade-off, seen from a range query).  Each level's sums
    are polynomials in the block index per parity, summed in closed form.
    """
    full = DyadicDomain(size)
    n = full.requested_size
    total = n * (n + 1) // 2

    def ending_before(x):                   # intervals of [0, n) with hi < x
        x = min(x, n)
        return x * (x + 1) // 2

    def holding(lo, hi):                    # intervals of [0, n) holding [lo, hi]
        return (lo + 1) * max(n - hi, 0)

    def moments(level: int, capped: bool):
        """Summed over the level's nodes: ``p_U^2, p_I^2, p_U p_I, p_I``
        (times ``total^2`` or ``total``)."""
        def node(k):
            lo, width = k << level, 1 << level
            upper = ending_before(lo + width) - ending_before(lo)
            used = holding(lo, lo + width - 1)
            if not capped:                  # below the cap: the parent is not
                parent = (k >> 1) << (level + 1)
                used -= holding(parent, parent + 2 * width - 1)
            return np.array([upper * upper, used * used, upper * used, used],
                            dtype=object)

        regular = n >> (level + 1)          # nodes whose parent is whole
        return (sum(_quartic_sum(lambda j: node(2 * j + parity), regular)
                    for parity in (0, 1))
                + sum((node(k) for k in range(2 * regular, -(-n >> level))), 0))

    scores, data = [], 0
    for cap in range(full.height + 1):
        uu, ii, ui, cover = data + moments(cap, True)
        scores.append(uu * cover + total * ((cap + 1) * ii + 2 * ui))
        data = data + moments(cap, False)
    return scores


def range_max_levels(sizes) -> tuple[int, ...]:
    """Per size, the cap with the least :func:`range_level_scores` (the
    lowest on a tie): 7 for 1024, where the worst-case rule says 8."""
    return tuple(min(enumerate(range_level_scores(size)), key=lambda s: s[1])[0]
                 for size in sizes)


@dataclass(frozen=True)
class DyadicInterval:
    """A dyadic interval: ``level`` and position ``index`` within the level."""

    level: int
    index: int

    @property
    def length(self) -> int:
        return 1 << self.level

    @property
    def lo(self) -> int:
        return self.index << self.level

    @property
    def hi(self) -> int:
        return ((self.index + 1) << self.level) - 1


class DyadicDomain:
    """Dyadic structure over a padded domain of size ``2^height``.

    Parameters
    ----------
    size:
        Requested domain size; it is padded up to the next power of two
        (footnote 1 in the paper).
    max_level:
        Largest dyadic level that covers may use (Section 6.5).  ``None``
        (the default) allows all levels up to the root.
    """

    __slots__ = ("_requested_size", "_size", "_height", "_max_level")

    def __init__(self, size: int, *, max_level: int | None = None) -> None:
        if size < 1:
            raise DomainError(f"domain size must be positive, got {size}")
        self._requested_size = int(size)
        self._size = next_power_of_two(int(size))
        self._height = self._size.bit_length() - 1
        if max_level is None:
            max_level = self._height
        if not 0 <= max_level <= self._height:
            raise DomainError(
                f"max_level must be in [0, {self._height}], got {max_level}"
            )
        self._max_level = int(max_level)

    # -- basic properties ---------------------------------------------------

    @property
    def requested_size(self) -> int:
        """The size that was asked for (before power-of-two padding)."""
        return self._requested_size

    @property
    def size(self) -> int:
        """The padded domain size ``n = 2^height``."""
        return self._size

    @property
    def height(self) -> int:
        """``log2`` of the padded domain size."""
        return self._height

    @property
    def max_level(self) -> int:
        return self._max_level

    @property
    def num_nodes(self) -> int:
        """Total number of dyadic intervals over the padded domain."""
        return 2 * self._size - 1

    def with_max_level(self, max_level: int | None) -> "DyadicDomain":
        """A copy of this domain with a different level restriction."""
        return DyadicDomain(self._requested_size, max_level=max_level)

    # -- node id conversions --------------------------------------------------

    def node_id(self, level: int, index: int) -> int:
        """Node id of the dyadic interval at ``(level, index)``."""
        if not 0 <= level <= self._height:
            raise DomainError(f"level {level} outside [0, {self._height}]")
        num_at_level = self._size >> level
        if not 0 <= index < num_at_level:
            raise DomainError(f"index {index} outside [0, {num_at_level}) at level {level}")
        # Nodes at depth d = height - level start at id 2^d - 1.
        depth = self._height - level
        return (1 << depth) - 1 + index

    def interval_of(self, node: int) -> DyadicInterval:
        """The dyadic interval corresponding to a node id."""
        if not 0 <= node < self.num_nodes:
            raise DomainError(f"node id {node} outside [0, {self.num_nodes})")
        depth = (node + 1).bit_length() - 1
        level = self._height - depth
        index = node - ((1 << depth) - 1)
        return DyadicInterval(level, index)

    def leaf_id(self, coordinate: int) -> int:
        """Node id of the level-0 dyadic interval at ``coordinate``."""
        self._check_coordinate(coordinate)
        return self._size - 1 + coordinate

    # -- covers ---------------------------------------------------------------

    def _check_coordinate(self, coordinate: int) -> None:
        if not 0 <= coordinate < self._size:
            raise DomainError(
                f"coordinate {coordinate} outside padded domain [0, {self._size})"
            )

    def point_cover(self, coordinate: int) -> list[int]:
        """Node ids of all allowed dyadic intervals containing ``coordinate``.

        Without a level restriction this is the root-to-leaf path of length
        ``height + 1`` (Lemma 3); with ``max_level = m`` it is the lowest
        ``m + 1`` nodes of that path.
        """
        self._check_coordinate(coordinate)
        node = self._size - 1 + int(coordinate)
        cover = [node]
        for _ in range(self._max_level):
            node = (node - 1) >> 1
            cover.append(node)
        return cover

    def cover(self, lo: int, hi: int) -> list[int]:
        """Node ids of the canonical dyadic cover of ``[lo, hi]`` (Lemma 2).

        The cover is the unique minimal set of disjoint, allowed dyadic
        intervals whose union is ``[lo, hi]``.  Without a level restriction
        it has at most ``2 log2 n`` elements; with ``max_level = m`` an
        interval of length ``L`` needs at most ``L / 2^m + 2 m`` elements.
        """
        self._check_coordinate(lo)
        self._check_coordinate(hi)
        if lo > hi:
            raise DomainError(f"cover requested for empty interval [{lo}, {hi}]")
        cover: list[int] = []
        pos = int(lo)
        hi = int(hi)
        while pos <= hi:
            # Largest allowed level at which `pos` is aligned and the block fits.
            level = self._max_level
            remaining = hi - pos + 1
            max_fit = remaining.bit_length() - 1
            if max_fit < level:
                level = max_fit
            if pos:
                alignment = (pos & -pos).bit_length() - 1
                if alignment < level:
                    level = alignment
            cover.append(self.node_id(level, pos >> level))
            pos += 1 << level
        return cover

    def cover_steps(self, lows: np.ndarray, highs: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The greedy walk of :meth:`cover`, batched by *step* instead of by box.

        Entry ``t`` is ``(indices, nodes)``: the intervals whose cover has
        more than ``t`` blocks and the ``t``-th node of each, in one
        vectorised level computation over the still active intervals.  A
        cover has at most ``2 log2 n`` blocks without a level restriction,
        so the Python-level loop runs O(log n) times regardless of batch
        size — this is where the ingest hot path sheds its per-box Python
        cost.  Raises what the scalar walk raises for the first bad box.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        self._check_intervals(lows, highs)
        max_level = np.int64(self._max_level)
        height = self._height
        one = np.int64(1)
        pos = lows.copy()
        active = np.arange(len(lows), dtype=np.int64)
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        while active.size:
            current = pos[active]
            # Largest allowed level at which `current` is aligned and the
            # block still fits into the remaining interval.
            level = np.minimum(
                _bit_lengths(highs[active] - current + 1) - 1, max_level)
            alignment = np.where(current != 0,
                                 _bit_lengths(current & -current) - 1,
                                 max_level)
            np.minimum(level, alignment, out=level)
            # node_id(level, index): depth-(height-level) nodes start at
            # 2^(height-level) - 1.
            steps.append((active, (one << (height - level)) - 1
                          + (current >> level)))
            pos[active] = current + (one << level)
            active = active[pos[active] <= highs[active]]
        return steps

    def covers(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vector form of :meth:`cover` for parallel low/high arrays.

        Returns ``(ids, lengths)`` where ``ids`` is the concatenation of all
        covers (in :meth:`cover` emission order) and ``lengths[i]`` is the
        size of the cover of box ``i``.
        """
        steps = self.cover_steps(lows, highs)
        lengths = np.zeros(len(lows), dtype=np.int64)
        if not steps:
            return np.empty(0, dtype=np.int64), lengths
        for indices, _ in steps:
            lengths[indices] += 1
        starts = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        ids = np.empty(int(lengths.sum()), dtype=np.int64)
        # Box i is active in steps 0..lengths[i]-1 consecutively, so step
        # t's node lands at slot starts[i] + t — the scalar emission order.
        for step, (indices, nodes) in enumerate(steps):
            ids[starts[indices] + step] = nodes
        return ids, lengths

    def _check_intervals(self, lows: np.ndarray, highs: np.ndarray) -> None:
        bad = ((lows < 0) | (lows >= self._size)
               | (highs < 0) | (highs >= self._size) | (lows > highs))
        if bad.any():
            first = int(np.argmax(bad))
            # Raise exactly what the scalar walk would have raised for the
            # first offending box (coordinate checks before emptiness).
            self.cover(int(lows[first]), int(highs[first]))

    def _check_coordinates(self, coordinates: np.ndarray) -> None:
        if coordinates.size and (coordinates.min() < 0 or coordinates.max() >= self._size):
            raise DomainError("coordinate outside padded domain")

    def point_covers(self, coordinates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vector form of :meth:`point_cover`; every cover has the same length."""
        coordinates = np.asarray(coordinates, dtype=np.int64)
        self._check_coordinates(coordinates)
        per_point = self._max_level + 1
        nodes = np.empty((len(coordinates), per_point), dtype=np.int64)
        current = self._size - 1 + coordinates
        nodes[:, 0] = current
        for step in range(1, per_point):
            current = (current - 1) >> 1
            nodes[:, step] = current
        lengths = np.full(len(coordinates), per_point, dtype=np.int64)
        return nodes.reshape(-1), lengths

    # -- cover sums as table lookups --------------------------------------------
    #
    # Given the sign matrix ``signs[node, f]`` of one xi bank, the sum of
    # signs over a cover depends only on the cover's coordinates, so it can
    # be tabulated per coordinate once and gathered per box afterwards:
    # one gather per point instead of ``max_level + 1``, two per interval
    # instead of up to ``2 * max_level``, and no cover walk.  Every table
    # is coordinate-major like ``signs``: a lookup reads one contiguous row
    # of ``f`` bytes, and results are ``(boxes, f)`` integer rows.  Entries
    # are sums of at most ``2 * (max_level + 1) <= 62`` signs, hence int8
    # (the two top interval planes: see ``_folds_prefix``).

    def _level_signs(self, signs: np.ndarray, level: int) -> np.ndarray:
        """The rows of ``signs`` for the ``size >> level`` level-``level`` nodes."""
        first = (1 << (self._height - level)) - 1
        return signs[first:first + (self._size >> level)]

    def point_table_bytes(self, num_families: int) -> int:
        """Bytes :meth:`point_cover_table` allocates (known before it runs)."""
        return num_families * self._size

    def point_cover_table(self, signs: np.ndarray) -> tuple[np.ndarray]:
        """``table[x, f]``: the sum of ``signs[:, f]`` over ``point_cover(x)``."""
        table = self._level_signs(signs, 0).copy()
        families = table.shape[1]
        for level in range(1, self._max_level + 1):
            blocks = table.reshape(self._size >> level, 1 << level, families)
            blocks += self._level_signs(signs, level)[:, None, :]
        return (table,)

    def point_cover_sums(self, tables: tuple[np.ndarray],
                         coordinates: np.ndarray) -> np.ndarray:
        """Row ``j``: the sign sum over ``point_cover(coordinates[j])``."""
        coordinates = np.asarray(coordinates, dtype=np.int64)
        self._check_coordinates(coordinates)
        return np.take(tables[0], coordinates, axis=0)

    def interval_table_bytes(self, num_families: int) -> int:
        """Bytes :meth:`interval_cover_tables` allocates (known before it runs)."""
        prefix = 0 if self._folds_prefix else 4 * (
            (self._size >> self._max_level) + 1)
        return num_families * ((self._max_level + 2) * self._size + prefix)

    @property
    def _folds_prefix(self) -> bool:
        """Whether the whole-block prefix sums fit into the int8 top planes:
        a boundary cover of up to ``max_level + 1`` nodes plus up to
        ``size >> max_level`` level-``max_level`` blocks."""
        return self._max_level + 1 + (self._size >> self._max_level) <= 127

    def cover_sum_bound(self) -> int:
        """An upper bound on the absolute sign sum over any cover (or two).

        An interval cover has up to ``max_level + 1`` nodes on either
        boundary plus the whole level-``max_level`` blocks in between; two
        point covers have ``2 * (max_level + 1)`` nodes.
        """
        return 2 * (self._max_level + 1) + (self._size >> self._max_level)

    def interval_cover_tables(self, signs: np.ndarray
                              ) -> tuple[np.ndarray, ...]:
        """Boundary and prefix tables that answer any ``cover(lo, hi)`` sum.

        Write ``right(h, x)`` for the sum over the cover of ``[x, end of
        x's level-h block]`` and ``left(h, x)`` for the cover of ``[start
        of that block, x]``.  :meth:`interval_cover_sums` reads ``right``
        at ``lo`` and ``left`` at ``hi`` for the level ``h`` at which the
        two part ways; below ``max_level`` that puts ``lo`` in the lower
        and ``hi`` in the upper half of one level-``h + 1`` block, so a
        single plane per level holds both: ``bounds[h, x, f]`` is ``right(h,
        x)`` where bit ``h`` of ``x`` is clear and ``left(h, x)`` where it
        is set.  At ``h = max_level`` the two may lie whole blocks apart
        and each keeps its own plane: ``bounds[max_level]`` is ``right``,
        ``bounds[max_level + 1]`` is ``left``, and ``prefix[k, f]`` sums
        the first ``k`` level-``max_level`` nodes in between.  Where the
        result still fits int8 (``_folds_prefix``: every cap but the
        deepest ones over a large domain) the prefix is folded into the
        two planes — ``right(x) - prefix[(x >> max_level) + 1]`` and
        ``left(x) + prefix[x >> max_level]`` — so the whole blocks between
        ``lo`` and ``hi`` come with the same two gathers and ``(bounds,)``
        is returned alone; otherwise ``(bounds, prefix)``.  ``bounds`` is
        flattened to ``((max_level + 2) * size, f)``.
        """
        size, max_level = self._size, self._max_level
        right = self._level_signs(signs, 0).copy()
        left = right.copy()
        families = right.shape[1]
        bounds = np.empty((max_level + 2, size, families), dtype=np.int8)
        for level in range(max_level + 1):
            if level:
                # A level-`level` block is two level-(level-1) halves.  From
                # its lower half the cover to the block's end adds the whole
                # upper half to the half-level cover; from the upper half
                # nothing is added (mirrored for covers from the block's
                # start) — except at the block's own edge, where the cover
                # is the block itself.
                halves = (size >> level, 2, 1 << (level - 1), families)
                nodes = self._level_signs(signs, level - 1).reshape(
                    size >> level, 2, 1, families)
                right.reshape(halves)[:, 0] += nodes[:, 1]
                left.reshape(halves)[:, 1] += nodes[:, 0]
                block = self._level_signs(signs, level)
                right[::1 << level] = block
                left[(1 << level) - 1::1 << level] = block
            if level < max_level:
                # right where bit `level` of x is clear, left where set.
                halves = (size >> (level + 1), 2, 1 << level, families)
                plane = bounds[level].reshape(halves)
                plane[:, 0] = right.reshape(halves)[:, 0]
                plane[:, 1] = left.reshape(halves)[:, 1]
        top = self._level_signs(signs, max_level)
        prefix = np.zeros((len(top) + 1, families), dtype=np.int32)
        np.cumsum(top, axis=0, dtype=np.int32, out=prefix[1:])
        if self._folds_prefix:
            blocks = (len(top), 1 << max_level, families)
            right.reshape(blocks)[...] -= prefix[1:, None].astype(np.int8)
            left.reshape(blocks)[...] += prefix[:-1, None].astype(np.int8)
        bounds[max_level] = right
        bounds[max_level + 1] = left
        bounds = bounds.reshape((max_level + 2) * size, families)
        return (bounds,) if self._folds_prefix else (bounds, prefix)

    def interval_cover_sums(self, signs: np.ndarray,
                            tables: tuple[np.ndarray, ...],
                            lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Row ``j``: the sign sum over ``cover(lows[j], highs[j])``.

        Let ``h + 1`` be the lowest level at which ``lo`` and ``hi`` share a
        block, capped at ``max_level + 1``.  Then ``lo`` and ``hi`` lie in
        different level-``h`` blocks and the cover is the cover of ``[lo,
        end of lo's block]``, the whole level-``max_level`` blocks strictly
        between the two (only when ``h == max_level``), and the cover of
        ``[start of hi's block, hi]``.  The one exception is an interval
        that *is* an allowed dyadic block (``lo == hi`` included): its
        cover is that single node, read from ``signs`` directly.  Rows are
        int8; only where the prefix could not be folded into the planes
        are they int32 once a batch spans whole blocks.  Raises what
        :meth:`covers` raises for the same input.
        """
        bounds = tables[0]
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        self._check_intervals(lows, highs)
        size, max_level = self._size, self._max_level
        shared = _bit_lengths(lows ^ highs)
        row = np.minimum(shared, max_level + 1) - 1
        np.maximum(row, 0, out=row)
        sums = np.take(bounds, row * size + lows, axis=0)
        row += row == max_level        # left(max_level) has its own plane
        sums += np.take(bounds, row * size + highs, axis=0)
        if not self._folds_prefix:
            spanning = np.flatnonzero(shared > max_level)
            if spanning.size:
                first = (lows[spanning] >> max_level) + 1
                last = highs[spanning] >> max_level
                sums = sums.astype(np.int32)
                sums[spanning] += (np.take(tables[1], last, axis=0)
                                   - np.take(tables[1], first, axis=0))
        mask = (np.int64(1) << shared) - 1
        exact = np.flatnonzero((shared <= max_level) & ((lows & mask) == 0)
                               & (((highs + 1) & mask) == 0))
        if exact.size:
            block_level = shared[exact]
            nodes = ((np.int64(1) << (self._height - block_level)) - 1
                     + (lows[exact] >> block_level))
            sums[exact] = np.take(signs, nodes, axis=0)
        return sums

    # -- cover sums split by level ----------------------------------------------
    #
    # A level-split counter keeps, per dyadic level, the sign sum over the
    # part of a cover that lies on that level.  A point cover has exactly
    # one node per level.  The canonical cover of ``[lo, hi]`` holds the
    # level-``l`` nodes inside it whose parent is not: with ``a = ceil(lo /
    # 2^l)`` and ``b = floor((hi + 1) / 2^l) - 1`` the nodes inside are
    # ``a..b``, and below ``max_level`` only ``a`` (if odd) and ``b`` (if
    # even) lack a parent inside; at ``max_level`` all of ``a..b`` count, a
    # difference of prefix sums.  So every per-level sum is one entry read
    # at ``lo`` plus one read at ``hi`` — ``(boxes, levels)`` lookups into
    # :meth:`level_values` at :meth:`level_columns` — except on a level
    # holding no node inside (``a > b``, :meth:`level_gaps`), where it is 0.

    @property
    def num_levels(self) -> int:
        """Levels a cover may use: ``0..max_level``."""
        return self._max_level + 1

    @property
    def level_dtype(self) -> np.dtype:
        """The integer type of a level sum: the top level adds up to
        ``size >> max_level`` whole blocks."""
        return np.min_scalar_type(-(self._size >> self._max_level) - 1)

    def level_values(self, signs: np.ndarray) -> np.ndarray:
        """``(families, entries)``: what :meth:`level_columns` points at —
        a zero, every level's node signs, then the top level's prefix sums
        and their negations."""
        top = self._level_signs(signs, self._max_level)
        prefix = np.zeros((len(top) + 1, signs.shape[1]), dtype=np.int64)
        np.cumsum(top, axis=0, out=prefix[1:])
        first = (1 << (self._height - self._max_level)) - 1
        return np.concatenate([np.zeros((1, signs.shape[1]), dtype=np.int64),
                               signs[first:], prefix, -prefix]
                              ).T.astype(self.level_dtype)

    def level_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(point, low, high)``, each ``(size, levels)`` indices into
        :meth:`level_values`: per coordinate ``x`` and level, the point
        cover's node, the ``a`` side of a cover starting at ``x`` and the
        ``b`` side of one ending at ``x`` (0, the zero entry, where the
        side adds nothing)."""
        top, height = self._max_level, self._height
        levels = np.arange(self.num_levels, dtype=np.int64)
        x = np.arange(self._size, dtype=np.int64)[:, None]
        # Node (level, k) sits at entry 1 + node_id - first node id of the top.
        offsets = 1 + (np.int64(1) << (height - levels)) - (1 << (height - top))
        first = (x + (np.int64(1) << levels) - 1) >> levels
        last = ((x + 1) >> levels) - 1
        point = offsets + (x >> levels)
        low = np.where((first & 1) & (first < self._size >> levels), offsets + first, 0)
        high = np.where((last & 1) == 0, offsets + last, 0)
        # The prefix sums follow the node signs, their negations those.
        prefix = 1 + 2 * self._size - (1 << (height - top))
        blocks = (self._size >> top) + 1
        low[:, top] = prefix + blocks + first[:, top]
        high[:, top] = prefix + last[:, top] + 1
        return point, low, high

    def level_gaps(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``(boxes, levels)``: True where ``[lo, hi]`` holds no whole node
        of the level — its level sum is zero there.  Raises what
        :meth:`covers` raises for the same input."""
        self._check_intervals(lows, highs)
        levels = np.arange(self.num_levels, dtype=np.int64)
        first = (lows[:, None] + (np.int64(1) << levels) - 1) >> levels
        last = ((highs[:, None] + 1) >> levels) - 1
        return first > last

    def node_levels(self, nodes: np.ndarray) -> np.ndarray:
        """The dyadic level of every node id."""
        return self._height - (_bit_lengths(nodes + 1) - 1)

    # -- debugging helpers -----------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DyadicDomain(size={self._size}, height={self._height}, "
            f"max_level={self._max_level})"
        )
