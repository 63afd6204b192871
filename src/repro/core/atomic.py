"""Atomic spatial sketches (Sections 3.1 and 3.2).

An *atomic sketch* is a single randomized linear projection of a spatial
dataset.  For a d-dimensional dataset every atomic sketch instance keeps one
counter per *word* ``w``, where a word assigns a :class:`Letter` to every
dimension.  Inserting a hyper-rectangle ``r`` adds

    prod_i  s(i, w[i], r(i))

to the counter of word ``w``, where ``s(i, letter, [lo, hi])`` is the sum of
the dimension-``i`` xi variables over the dyadic nodes the letter reads.
:data:`LETTER_READS` is the one table of those reads — a *kind* and the
*ends* read — and every kernel, walk, level table, self-join size and
cover size reads its row:

* ``INTERVAL`` (I)    — ``cover`` of ``lo, hi``: the dyadic cover of ``[lo, hi]``,
* ``ENDPOINTS`` (E)   — ``points`` at ``lo, hi``: both point covers, summed,
* ``LOWER_POINT`` (P) — ``points`` at ``lo``     (points / epsilon-join),
* ``UPPER_POINT`` (U) — ``points`` at ``hi``     (range queries, X_U),
* ``LOWER_LEAF`` (l)  — ``leaf`` at ``lo``: the level-0 node (Appendix B/C, X_L),
* ``UPPER_LEAF`` (u)  — ``leaf`` at ``hi``                    (Appendix B/C, X_U).

A :class:`SketchBank` holds ``num_instances`` independent atomic sketches
(each with its own xi families per dimension) and updates all of them with
vectorised NumPy operations.  The estimators in the sibling modules combine
word counters of two banks built over *shared* xi families.

A bank may split every word's counter by dyadic level (``split_levels``):
one *cell* per tuple of per-dimension levels, holding ``prod_i s_l(i, w[i],
r(i))`` where ``s_l`` sums only the cover's level-``l`` nodes.  A query
pairs each cell with its own sums at the same levels; the cells summed over
levels are the one-cell counter.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import DimensionalityError, MergeCompatibilityError, SketchConfigError
from repro.core.domain import Domain
from repro.core.hashing import FourWiseFamilyBank, stack_xi_coefficients
from repro.geometry.boxset import BoxSet


class Letter(str, Enum):
    """Per-dimension sketching modes (see module docstring)."""

    INTERVAL = "I"
    ENDPOINTS = "E"
    LOWER_POINT = "P"
    UPPER_POINT = "U"
    LOWER_LEAF = "l"
    UPPER_LEAF = "u"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LetterRead(NamedTuple):
    """A row of :data:`LETTER_READS`: ``kind`` is ``"cover"``, ``"points"``
    or ``"leaf"``, ``ends`` the ends read (0: ``lo``, 1: ``hi``)."""

    kind: str
    ends: tuple[int, ...]

    def coordinates(self, lows, highs) -> tuple:
        """The coordinates of the ends read, in ``ends`` order."""
        return tuple((lows, highs)[end] for end in self.ends)


#: What each letter reads of a box (see the module docstring).
LETTER_READS: dict[Letter, LetterRead] = {
    Letter.INTERVAL: LetterRead("cover", (0, 1)),
    Letter.ENDPOINTS: LetterRead("points", (0, 1)),
    Letter.LOWER_POINT: LetterRead("points", (0,)),
    Letter.UPPER_POINT: LetterRead("points", (1,)),
    Letter.LOWER_LEAF: LetterRead("leaf", (0,)),
    Letter.UPPER_LEAF: LetterRead("leaf", (1,)),
}


def letter_covers(dyadic, letter: Letter, lows, highs
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, lengths)``: the node ids ``letter`` reads of every interval,
    concatenated (a points letter's ends one after the other), and how
    many each interval has."""
    read = LETTER_READS[letter]
    ends = read.coordinates(np.asarray(lows, dtype=np.int64),
                            np.asarray(highs, dtype=np.int64))
    if read.kind == "cover":
        return dyadic.covers(*ends)
    count = len(ends[0])
    if read.kind == "leaf":
        return dyadic.size - 1 + ends[0], np.ones(count, dtype=np.int64)
    per_point = dyadic.max_level + 1
    ids = np.concatenate([dyadic.point_covers(coordinates)[0].reshape(count, per_point)
                          for coordinates in ends], axis=1)
    return ids.reshape(-1), np.full(count, per_point * len(ends), dtype=np.int64)


Word = tuple[Letter, ...]


def all_words(letters: Sequence[Letter], dimension: int) -> list[Word]:
    """All ``len(letters)^dimension`` words over the given letters."""
    words: list[Word] = [()]
    for _ in range(dimension):
        words = [w + (letter,) for w in words for letter in letters]
    return words


class SketchBank:
    """A bank of ``num_instances`` atomic spatial sketches over one dataset.

    Parameters
    ----------
    domain:
        The d-dimensional data space (with optional maxLevel restrictions).
    words:
        The words whose counters are maintained.
    num_instances:
        Number of independent atomic sketches.
    seed:
        Seed for the xi families (ignored when ``xi_banks`` is given).
    xi_banks:
        Per-dimension :class:`FourWiseFamilyBank` objects to share with
        another bank (the two inputs of a join must share their families).
    split_levels:
        Keep one counter cell per (word, per-dimension level tuple) instead
        of one per word (1-D and 2-D banks over cover letters).
    """

    #: Upper bound on ``num_instances * ids_per_chunk`` for one vectorised step.
    _CHUNK_ELEMENT_BUDGET = 1 << 23

    #: Elements of one instance tile of a level-split bank's float32 rows
    #: (512 KB: 4 instances x 2048 boxes x 16 columns), which keeps the
    #: tile's slice of the level tables in cache.
    _SPLIT_ELEMENT_BUDGET = 1 << 17

    #: Counter updates are summed in integers while every partial sum stays
    #: below this: float64 holds each of them exactly, so the integer and
    #: the float kernels agree to the bit.
    _EXACT_INTEGER_LIMIT = 1 << 53

    #: The same limit for the float32 cell matmul of a level-split bank.
    _EXACT_FLOAT32_LIMIT = 1 << 24

    def __init__(self, domain: Domain, words: Sequence[Word], num_instances: int,
                 *, seed=0, xi_banks: Sequence[FourWiseFamilyBank] | None = None,
                 split_levels: bool = False) -> None:
        if num_instances < 1:
            raise SketchConfigError("a sketch bank needs at least one instance")
        words = [tuple(w) for w in words]
        if not words:
            raise SketchConfigError("a sketch bank needs at least one word")
        for word in words:
            if len(word) != domain.dimension:
                raise DimensionalityError(
                    f"word {word} has {len(word)} letters but the domain is "
                    f"{domain.dimension}-dimensional"
                )
            if not all(isinstance(letter, Letter) for letter in word):
                raise SketchConfigError(f"word {word} contains non-Letter entries")
        if len(set(words)) != len(words):
            raise SketchConfigError("duplicate words in sketch bank configuration")
        if split_levels and (domain.dimension > 2 or any(
                LETTER_READS[letter].kind == "leaf"
                for word in words for letter in word)):
            raise SketchConfigError(
                "level-split counters need a 1-D or 2-D bank over cover letters")

        self._domain = domain
        self._words: tuple[Word, ...] = tuple(words)
        self._num_instances = int(num_instances)

        if xi_banks is None:
            rng = np.random.default_rng(seed)
            xi_banks = []
            for dim in range(domain.dimension):
                universe = domain.dyadic(dim).num_nodes
                xi_banks.append(FourWiseFamilyBank(num_instances, universe, rng))
        else:
            xi_banks = list(xi_banks)
            if len(xi_banks) != domain.dimension:
                raise SketchConfigError("one xi bank per dimension is required")
            for dim, bank in enumerate(xi_banks):
                if bank.num_families != num_instances:
                    raise SketchConfigError("xi banks disagree with num_instances")
                if bank.universe_size < domain.dyadic(dim).num_nodes:
                    raise SketchConfigError(
                        f"xi bank universe too small for dimension {dim}"
                    )
        self._xi: tuple[FourWiseFamilyBank, ...] = tuple(xi_banks)
        # All counters live in one contiguous (instances, words x cells)
        # tensor; word j owns the `cells` columns from j * cells, its level
        # tuples in row-major order (one column without split levels).
        # Merges and snapshots operate on the tensor as a whole.
        self._word_index: dict[Word, int] = {
            word: index for index, word in enumerate(self._words)
        }
        self._split = bool(split_levels)
        self._levels: tuple[int, ...] = tuple(
            dyadic.num_levels if split_levels else 1 for dyadic in domain.dyadics)
        self._cells = int(np.prod(self._levels))
        self._matrix = np.zeros(
            (self._num_instances, len(self._words) * self._cells), dtype=np.float64)
        # Net weighted box count (see num_updates); float so that fractional
        # update weights account exactly like the counters they feed.
        self._updates = 0.0

    # -- introspection --------------------------------------------------------

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def dimension(self) -> int:
        return self._domain.dimension

    @property
    def words(self) -> tuple[Word, ...]:
        return self._words

    @property
    def num_instances(self) -> int:
        return self._num_instances

    @property
    def xi_banks(self) -> tuple[FourWiseFamilyBank, ...]:
        return self._xi

    @property
    def num_updates(self) -> int | float:
        """Net weighted box count: inserts minus deletes, scaled by weight.

        A plain insert moves this by ``+count``, a delete by ``-count``, and
        a weighted update by ``weight * count`` — the accounting follows the
        linear-projection semantics, where inserting with ``weight=w`` is
        exactly inserting ``w`` copies of every box.  Integral totals (the
        norm under ±1 streaming updates) are returned as ``int`` so that
        snapshots and comparisons keep their historical integer shape.
        """
        if float(self._updates).is_integer():
            return int(self._updates)
        return float(self._updates)

    @property
    def split_levels(self) -> bool:
        return self._split

    @property
    def levels(self) -> tuple[int, ...]:
        """Cells per dimension: its levels when split, else 1."""
        return self._levels

    @property
    def counter_tensor(self) -> np.ndarray:
        """The full ``(num_instances, num_words x cells)`` counter tensor
        (read-only view).

        Word ``j`` owns the columns ``j * cells`` onwards (one column
        without split levels).  This is the bank's actual storage — one
        contiguous float64 array — exposed for zero-copy merges, snapshots
        and batched estimation kernels.
        """
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    def word_cells(self, word: Word) -> np.ndarray:
        """The ``(num_instances, cells)`` counters of ``word`` (read-only view)."""
        start = self._word_index[tuple(word)] * self._cells
        view = self._matrix[:, start:start + self._cells]
        view.setflags(write=False)
        return view

    def counter(self, word: Word) -> np.ndarray:
        """A copy of the per-instance counter values for ``word``: its cells
        summed over levels (exact integer sums)."""
        cells = self.word_cells(word)
        return cells[:, 0].copy() if self._cells == 1 else cells.sum(axis=1)

    def companion(self, words: Sequence[Word] | None = None) -> "SketchBank":
        """A new empty bank sharing this bank's xi families and layout.

        The two inputs of a join must be sketched against the *same* xi
        families; ``companion`` is how the second input's bank is created.
        """
        return SketchBank(
            self._domain,
            self._words if words is None else words,
            self._num_instances,
            xi_banks=self._xi,
            split_levels=self.split_levels,
        )

    # -- composition and persistence -------------------------------------------

    def check_merge_compatible(self, other: "SketchBank") -> None:
        """Raise :class:`MergeCompatibilityError` unless ``other`` is mergeable.

        Merge compatibility requires the same domain (dyadic structure), the
        same word set and counter layout, the same instance count and the
        same xi families.
        """
        if other.domain.signature() != self._domain.signature():
            raise MergeCompatibilityError(
                f"cannot merge banks over different domains "
                f"({other.domain!r} vs {self._domain!r})"
            )
        if other.words != self._words:
            raise MergeCompatibilityError("cannot merge banks with different word sets")
        if other.split_levels != self._split:
            raise MergeCompatibilityError(
                "cannot merge a level-split bank with a one-cell bank")
        if other.num_instances != self._num_instances:
            raise MergeCompatibilityError("cannot merge banks with different instance counts")
        for mine, theirs in zip(self._xi, other._xi):
            if mine is not theirs and not mine.matches_coefficients(theirs.coefficients):
                raise MergeCompatibilityError(
                    "cannot merge banks built over different xi families (seed mismatch)"
                )

    def merge(self, other: "SketchBank") -> None:
        """Add another bank's counters into this one.

        Sketches are linear projections, so the merged bank summarises the
        union (multiset sum) of the two inputs — the standard way to build a
        sketch over partitioned or distributed data.  Both banks must have
        been created over the *same* xi families (e.g. via :meth:`companion`
        or from the same seed and domain); anything else raises
        :class:`~repro.errors.MergeCompatibilityError`.  The merge is one
        vectorised add of the two counter tensors.
        """
        self.check_merge_compatible(other)
        self._ensure_writable()
        self._matrix += other._matrix
        self._updates += other._updates

    def clone_with_delta(self, delta: "SketchBank") -> "SketchBank":
        """A new bank equal to ``self + delta``, sharing this bank's xi families.

        This is the counter half of the delta-propagation fast path: instead
        of re-merging every shard into a fresh bank, the new bank *aliases*
        this bank's :class:`~repro.core.hashing.FourWiseFamilyBank` objects — keeping
        their lazily-built sign and derived cover tables warm — and computes
        its counter tensor as one out-of-place add.  Neither input is
        mutated, so estimates still reading this bank are never torn.  Counter updates are exact integers
        in float64, so the result is bit-identical to a from-scratch merge.
        """
        self.check_merge_compatible(delta)
        clone = object.__new__(SketchBank)
        clone._domain = self._domain
        clone._words = self._words
        clone._num_instances = self._num_instances
        clone._xi = self._xi
        clone._word_index = self._word_index
        clone._split, clone._levels, clone._cells = \
            self._split, self._levels, self._cells
        clone._matrix = self._matrix + delta._matrix
        clone._updates = self._updates + delta._updates
        return clone

    def xi_coefficient_tensor(self) -> np.ndarray:
        """All xi seeds as one ``(dimension, num_instances, 4)`` uint64 tensor."""
        return stack_xi_coefficients(self._xi)

    def state_dict(self, *, copy: bool = True) -> dict:
        """A snapshot of the bank's counters and seeds.

        ``counters`` is a copy of the contiguous
        ``(num_instances, num_words x cells)`` tensor and ``xi_coefficients`` the
        stacked ``(dimension, num_instances, 4)`` seed tensor — the shape
        binary snapshots store and memory-map back, and binary worker
        links carry.  A JSON encoder renders both as nested lists, which
        :meth:`load_state_dict` accepts too.  ``copy=False`` hands over the
        live counter tensor instead, for a bank discarded once its state
        is written.
        """
        return {
            "num_instances": self._num_instances,
            "updates": self.num_updates,
            "domain": [list(pair) for pair in self._domain.signature()],
            "words": ["".join(letter.value for letter in word) for word in self._words],
            "counters": self._matrix.copy() if copy else self._matrix,
            "xi_coefficients": self.xi_coefficient_tensor(),
        }

    def load_state_dict(self, state: Mapping, *, copy: bool = True) -> None:
        """Restore counters previously captured by :meth:`state_dict`.

        The bank must have been constructed with the same configuration; the
        xi seeds stored in the snapshot are checked against the bank's own to
        guard against mixing incompatible sketches.  The tensors may arrive
        as arrays or, after a JSON hop, as nested lists.  With
        ``copy=False`` a read-only counter tensor is adopted as-is — e.g. a
        memory-mapped snapshot view, giving near-zero-copy restores; the
        bank copies it lazily the first time it is mutated.
        """
        if int(state["num_instances"]) != self._num_instances:
            raise MergeCompatibilityError("snapshot was taken with a different instance count")
        if "domain" in state:
            snapshot_signature = tuple(tuple(int(v) for v in pair)
                                       for pair in state["domain"])
            if snapshot_signature != self._domain.signature():
                raise MergeCompatibilityError(
                    "snapshot was taken over a different domain "
                    f"({snapshot_signature} vs {self._domain.signature()})"
                )
        expected_words = ["".join(letter.value for letter in word) for word in self._words]
        if list(state["words"]) != expected_words:
            raise MergeCompatibilityError("snapshot was taken with a different word set")
        xi_state = state["xi_coefficients"]
        if len(xi_state) != len(self._xi):
            raise MergeCompatibilityError("snapshot has a different dimensionality")
        for dim, coefficients in enumerate(xi_state):
            if not self._xi[dim].matches_coefficients(coefficients):
                raise MergeCompatibilityError(
                    "snapshot was taken over different xi families (seed mismatch)"
                )
        counters = state["counters"]
        try:
            matrix = np.asarray(counters, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            # e.g. the per-word lists of the retired v1 state form.
            raise MergeCompatibilityError(
                f"snapshot counters are not a tensor: {exc}") from exc
        if matrix.shape != self._matrix.shape:
            raise MergeCompatibilityError(
                "snapshot counter shape mismatch (a different number of "
                "instances, words or level cells)")
        # Adopt a caller's array without copying only when it is read-only
        # (memory-mapped snapshot views): adopting a *writable* one would
        # alias this bank's counters with the caller's state (and with every
        # other bank restored from it), so later inserts would corrupt them.
        if isinstance(counters, np.ndarray) and (copy or matrix.flags.writeable):
            matrix = matrix.copy()
        self._matrix = matrix
        self._updates = float(state["updates"])

    # -- updates -----------------------------------------------------------------

    def insert(self, boxes: BoxSet, *, weight: float = 1.0,
               letter_boxes: Mapping[Letter, BoxSet] | None = None) -> None:
        """Add ``weight`` times the contribution of every box to all counters.

        ``letter_boxes`` optionally overrides the coordinates used for
        specific letters (the extended-overlap estimator sketches shrunk
        coordinates for I/E letters but original coordinates for the leaf
        letters of the same objects).
        """
        if boxes.dimension != self.dimension:
            raise DimensionalityError(
                f"boxes are {boxes.dimension}-dimensional, bank is {self.dimension}-dimensional"
            )
        count = len(boxes)
        if count == 0:
            return
        self._ensure_writable()
        letters = self._letters_in_use()
        overrides = {letter: source
                     for letter, source in (letter_boxes or {}).items()
                     if letter in letters and source is not None}
        # Each distinct box set is validated once, however many letters
        # read it.
        if len(overrides) < len(letters):
            self._domain.validate_boxes(boxes, what="boxes")
        validated: list[BoxSet] = []
        for letter, source in overrides.items():
            if len(source) != count:
                raise SketchConfigError("letter_boxes overrides must have the same cardinality")
            if not any(source is seen for seen in validated):
                self._domain.validate_boxes(source, what=f"boxes for letter {letter}")
                validated.append(source)
        if overrides and self._split:
            raise SketchConfigError("a level-split bank takes no letter_boxes overrides")
        sources = {letter: overrides.get(letter, boxes) for letter in letters}

        chunk = self._chunk_size()
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            self._insert_chunk(sources, start, stop, weight)
        self._updates += float(weight) * count

    def prepay_tables(self) -> None:
        """Build now what a first :meth:`insert` would build inside it.

        The row functions an insert reads its xi sums through run on zero
        boxes, so every table they gather from — the interned sign tables
        and the cover or level tables derived from them, under the same
        byte limits — exists before the first box arrives, and an insert
        that follows costs its gathers only.  A family over the sign-table
        limit builds nothing.
        """
        empty = np.empty(0, dtype=np.int64)
        for dim in range(self.dimension):
            if self._xi[dim].resolve_table() is None:
                continue
            if self._split:
                self._level_sources(dim, empty, empty)
            else:
                for letter in self._dim_letters(dim):
                    self._letter_rows(dim, letter, empty, empty)

    # -- query-side evaluation ------------------------------------------------------

    def letter_sums(self, dim: int, letter: Letter, lows: np.ndarray,
                    highs: np.ndarray) -> np.ndarray:
        """Vectorised per-instance xi sums for one letter over many intervals.

        Returns a fresh float64 ``(num_instances, len(lows))`` matrix whose
        column ``j`` is the letter sum ``s(dim, letter, [lows[j],
        highs[j]])``.  Queries read :meth:`level_sums` (the same sums per
        counter cell); this whole sum is what kernel tests and the e2e
        trace check.  Column ``j`` is bit-identical to a single-interval
        call, and the result depends only on this bank's xi families and
        domain, never on its counters.
        """
        if not 0 <= int(dim) < self.dimension:
            raise DimensionalityError(
                f"dimension {dim} out of range for a {self.dimension}-dimensional bank"
            )
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        return self._letter_rows(int(dim), letter, lows,
                                 highs).T.astype(np.float64)

    def level_sums(self, dim: int, letter: Letter, lows: np.ndarray,
                   highs: np.ndarray) -> np.ndarray:
        """:meth:`letter_sums` per counter cell of the dimension.

        Returns ``(num_instances, len(lows), levels)`` integers: the sum
        split by dyadic level on a level-split bank, else one column
        holding the whole sum.  What a query pairs with a word's cells.
        """
        if not 0 <= int(dim) < self.dimension:
            raise DimensionalityError(
                f"dimension {dim} out of range for a {self.dimension}-dimensional bank"
            )
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if self._split:
            parts, mask = self._level_sources(int(dim), lows, highs, letter)
            sums = self._gather_rows(parts, slice(None))
            levels = self._levels[int(dim)]
            # A walk yields the letter's block alone; the level tables hold
            # every letter's side by side.
            first = (0 if sums.shape[2] == levels
                     else self._dim_letters(int(dim)).index(letter) * levels)
            columns = slice(first, first + levels)
            return sums[:, :, columns] if mask is None else \
                sums[:, :, columns] * mask[:, columns]
        return self._letter_rows(int(dim), letter, lows, highs).T[:, :, None]

    # -- internals ----------------------------------------------------------------

    def _ensure_writable(self) -> None:
        """Materialise the counter tensor before mutation (copy-on-write).

        A bank restored with ``copy=False`` may hold a read-only view into a
        memory-mapped snapshot; query-only consumers never pay for a copy,
        while the first mutation transparently promotes it to private memory.
        """
        if not self._matrix.flags.writeable:
            self._matrix = self._matrix.copy()

    def _letters_in_use(self) -> set[Letter]:
        return {letter for word in self._words for letter in word}

    def _chunk_size(self) -> int:
        if self._split:
            # Level rows, all letters side by side (tiled over instances).
            per_box = max(len(self._dim_letters(dim)) * levels
                          for dim, levels in enumerate(self._levels))
            return max(1, self._CHUNK_ELEMENT_BUDGET // (self._num_instances * per_box))
        # The largest cover of a box in any dimension, whole blocks included.
        per_box = max(dyadic.cover_sum_bound() for dyadic in self._domain.dyadics)
        return max(1, self._CHUNK_ELEMENT_BUDGET // (self._num_instances * per_box))

    def _insert_chunk(self, sources: Mapping[Letter, BoxSet], start: int, stop: int,
                      weight: float) -> None:
        if self._split:
            self._matrix += weight * self._cell_totals(sources, start, stop)
            return
        rows: dict[tuple[int, Letter], np.ndarray] = {}
        for word in self._words:
            for dim, letter in enumerate(word):
                key = (dim, letter)
                if key in rows:
                    continue
                source = sources[letter]
                rows[key] = self._letter_rows(
                    dim, letter, source.lows[start:stop, dim], source.highs[start:stop, dim]
                )
        # |prod_d s_d| <= bound for every box, so every partial sum over the
        # chunk is an integer of magnitude <= bound * boxes.
        bound = 1
        for dim in range(self.dimension):
            bound *= self._domain.dyadic(dim).cover_sum_bound()
        if bound * (stop - start) < self._EXACT_INTEGER_LIMIT:
            totals = self._integer_totals(rows, np.min_scalar_type(-bound - 1))
        else:
            totals = self._float_totals(rows)
        self._matrix += weight * totals

    def _cell_totals(self, sources: Mapping[Letter, BoxSet], start: int,
                     stop: int) -> np.ndarray:
        """Per-word cell sums over the chunk of a level-split bank.

        Per dimension the level rows of every letter in use are laid side
        by side, instance-major: ``(instances, boxes, letters x levels)``.
        A 1-D bank sums them over the boxes; a 2-D bank contracts the two
        dimensions in a batched matmul, whose ``(instances, K0, K1)``
        product holds every word's cells as one block.  Both run over
        tiles of instances, so a tile's slice of the tables stays in cache
        while all boxes of the chunk read it.  Every entry is an integer
        and every partial sum stays below the float32 (else the float64)
        exact limit, so the result is the exact integer sum.  Returns
        ``(instances, words x cells)`` float64.
        """
        count = stop - start
        bound = 1
        for dyadic in self._domain.dyadics:
            bound *= max(2, dyadic.size >> dyadic.max_level)
        dtype = (np.float32 if bound * count < self._EXACT_FLOAT32_LIMIT
                 else np.float64)
        boxes = next(iter(sources.values()))
        described, columns = [], []
        for dim, levels in enumerate(self._levels):
            described.append(self._level_sources(
                dim, boxes.lows[start:stop, dim], boxes.highs[start:stop, dim]))
            columns.append({letter: slice(index * levels, (index + 1) * levels)
                            for index, letter in enumerate(self._dim_letters(dim))})
        widths = [len(column) * levels for column, levels in zip(columns, self._levels)]
        if self.dimension == 1:
            columns.append({None: slice(0, 1)})
            widths.append(1)
        product = np.empty((self._num_instances, widths[0], widths[1]), dtype=dtype)
        tile = max(1, self._SPLIT_ELEMENT_BUDGET // (count * max(widths)))
        # One float row buffer per dimension, reused by every tile.
        buffers = [np.empty((tile, count, width), dtype=dtype)
                   for width in widths[:self.dimension]]
        for first in range(0, self._num_instances, tile):
            instances = slice(first, first + tile)
            rows = []
            for (parts, mask), buffer in zip(described, buffers):
                gathered = self._gather_rows(parts, instances)
                if mask is not None:
                    np.multiply(gathered, mask, out=gathered)
                out = buffer[:len(gathered)]
                np.copyto(out, gathered)
                rows.append(out)
            if self.dimension == 1:
                product[instances, :, 0] = rows[0].sum(axis=1)
            else:
                np.matmul(rows[0].transpose(0, 2, 1), rows[1], out=product[instances])
        totals = np.empty_like(self._matrix)
        for index, word in enumerate(self._words):
            first, second = (word + (None,))[:2]
            totals[:, index * self._cells:(index + 1) * self._cells] = product[
                :, columns[0][first], columns[1][second]].reshape(
                    self._num_instances, self._cells)
        return totals

    def _integer_totals(self, rows: Mapping[tuple[int, Letter], np.ndarray],
                        product: np.dtype) -> np.ndarray:
        """Per-word sums over the chunk of ``prod_d rows[d, word[d]]``.

        Multiplies the ``(boxes, instances)`` rows in ``product``, the
        narrowest integer type that holds any box's product, and sums them
        in int64; returns ``(instances, words)`` float64.
        """
        totals = np.empty((self._num_instances, len(self._words)), dtype=np.int64)
        for index, word in enumerate(self._words):
            term = rows[(0, word[0])]
            if self.dimension > 1:
                term = term.astype(product)
                for dim in range(1, self.dimension):
                    np.multiply(term, rows[(dim, word[dim])], out=term,
                                casting="same_kind")
            term.sum(axis=0, dtype=np.int64, out=totals[:, index])
        return totals.astype(np.float64)

    def _float_totals(self, rows: Mapping[tuple[int, Letter], np.ndarray]
                      ) -> np.ndarray:
        """:meth:`_integer_totals` in float64 over ``(instances, boxes)``.

        Past float64's exact integers a result depends on the order of the
        float operations, so this order is fixed: it is the one every
        stored counter beyond the limit was accumulated in.
        """
        sums = {key: np.ascontiguousarray(value.T, dtype=np.float64)
                for key, value in rows.items()}
        totals = np.empty((self._num_instances, len(self._words)), dtype=np.float64)
        for index, word in enumerate(self._words):
            term = sums[(0, word[0])]
            if self.dimension > 1:
                term = term.copy()
                for dim in range(1, self.dimension):
                    term *= sums[(dim, word[dim])]
            term.sum(axis=1, out=totals[:, index])
        return totals

    def _letter_rows(self, dim: int, letter: Letter, lows: np.ndarray,
                     highs: np.ndarray) -> np.ndarray:
        """``(num_boxes, num_instances)`` integer xi sums: one row per box."""
        dyadic, xi = self._domain.dyadic(dim), self._xi[dim]
        read = LETTER_READS[letter]
        ends = read.coordinates(lows, highs)
        if read.kind == "cover":
            return self._interval_rows(xi, dyadic, *ends)
        if read.kind == "leaf":
            return self._sign_rows(xi, dyadic.size - 1 + np.asarray(ends[0], dtype=np.int64))
        rows = self._point_cover_rows(xi, dyadic, ends[0])
        for coordinates in ends[1:]:
            rows += self._point_cover_rows(xi, dyadic, coordinates)
        return rows

    def _level_sources(self, dim: int, lows: np.ndarray, highs: np.ndarray,
                       only: Letter | None = None) -> tuple[list, np.ndarray | None]:
        """What the level sums of every letter the words use in ``dim`` are
        made of, side by side — letter ``k`` of :meth:`_dim_letters` in
        columns ``k * levels`` onwards of ``(instances, boxes, letters x
        levels)`` rows: ``(parts, mask)`` for :meth:`_gather_rows`.

        With the family's level tables the parts are the combined
        high-side table gathered at ``highs`` and the low-side one at
        ``lows`` (:meth:`_level_tables`), and the ``(boxes, columns)`` mask
        zeroes the levels an interval holds no node of (``None``: nothing
        to mask).  Without them the covers are walked and each node's sign
        lands in its level's column; naming ``only`` (the one letter a
        query reads) walks just that letter's covers.
        """
        dyadic, xi = self._domain.dyadic(dim), self._xi[dim]
        letters, levels = self._dim_letters(dim), dyadic.num_levels
        covering = [index for index, letter in enumerate(letters)
                    if LETTER_READS[letter].kind == "cover"]
        tables = self._level_tables(xi, dyadic, letters)
        if tables is not None:
            parts = list(zip(tables[::-1], (highs, lows)))
            gaps = dyadic.level_gaps(lows, highs) if covering else None
            if gaps is None or not gaps.any():
                return parts, None
            mask = np.ones((len(lows), len(letters), levels), dtype=dyadic.level_dtype)
            mask[:, covering] = ~gaps[:, None]
            return parts, mask.reshape(len(lows), -1)
        blocks = []
        for letter in letters if only is None else (only,):
            read = LETTER_READS[letter]
            ends = read.coordinates(lows, highs)
            if read.kind == "cover":
                steps = dyadic.cover_steps(*ends)
                rows = np.zeros((len(lows), levels, xi.num_families),
                                dtype=dyadic.level_dtype)
                for indices, nodes in steps:
                    rows[indices, dyadic.node_levels(nodes)] += self._sign_rows(xi, nodes)
            else:
                rows = sum(self._sign_rows(xi, dyadic.point_covers(coordinates)[0])
                           for coordinates in ends)
                rows = rows.reshape(len(lows), levels, xi.num_families)
            blocks.append(rows.transpose(2, 0, 1))
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)
        return [(rows, None)], None

    @staticmethod
    def _gather_rows(parts: list, instances: slice) -> np.ndarray:
        """The unmasked rows of :meth:`_level_sources` for some instances."""
        rows = None
        for table, coordinates in parts:
            part = (table[instances] if coordinates is None
                    else np.take(table[instances], coordinates, axis=1))
            rows = part if rows is None else np.add(rows, part, out=rows)
        return rows

    def _dim_letters(self, dim: int) -> tuple[Letter, ...]:
        """The letters the words use in ``dim``, in first-use order."""
        return tuple(dict.fromkeys(word[dim] for word in self._words))

    @staticmethod
    def _level_tables(xi: FourWiseFamilyBank, dyadic, letters) -> tuple | None:
        """``([low,] high)`` instance-major ``(families, size, letters x
        levels)`` tables of the letters' level sums.

        Column block ``k`` of ``high[f, x]`` is what letter ``k`` adds for
        a cover ending at ``x``, of ``low[f, x]`` for one starting there:
        an interval's two sides, the point cover of the end a point letter
        reads, zeros elsewhere (:meth:`~repro.core.dyadic.DyadicDomain.level_columns`).
        Each table is one gather from the family's level values; ``low``
        is left out when no letter reads the low end.
        """
        reads_low = any(0 in LETTER_READS[letter].ends for letter in letters)

        def build(signs):
            point, low, high = dyadic.level_columns()
            none = np.zeros_like(point)
            sides = {"cover": (low, high), "points": (point, point)}

            def side(letter, end):
                read = LETTER_READS[letter]
                return sides[read.kind][end] if end in read.ends else none

            values = dyadic.level_values(signs)
            return tuple(
                np.take(values, np.concatenate(
                    [side(letter, end) for letter in letters], axis=1), axis=1)
                for end in (0, 1) if end or reads_low)

        nbytes = ((1 + reads_low) * dyadic.level_dtype.itemsize * xi.num_families
                  * dyadic.size * dyadic.num_levels * len(letters))
        key = ("levels", dyadic.size, dyadic.max_level, "".join(letters))
        return xi.derived_tables(key, nbytes, build)

    # Cover sums are gathers from coordinate-indexed tables derived from
    # the xi family's sign table (see DyadicDomain.point_cover_table /
    # interval_cover_tables) — no cover walk.  Families over the sign-table
    # limit, and domains whose derived tables would exceed the byte budget,
    # walk the covers one step (one node per box) at a time and add each
    # step's sign rows up.
    # Every path returns a *fresh* writable (boxes, instances) integer
    # array, never a table view.  All paths produce identical values: the
    # summands are ±1 integers and no sum leaves its integer type.

    @staticmethod
    def _sign_rows(xi: FourWiseFamilyBank, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), instances)`` signs of ``ids``."""
        rows = np.empty((len(ids), xi.num_families), dtype=np.int8)
        xi.signs_into(ids, rows.T)
        return rows

    @staticmethod
    def _point_tables(xi: FourWiseFamilyBank, dyadic) -> tuple | None:
        return xi.derived_tables(
            ("point", dyadic.size, dyadic.max_level),
            dyadic.point_table_bytes(xi.num_families),
            dyadic.point_cover_table)

    @staticmethod
    def _interval_tables(xi: FourWiseFamilyBank, dyadic) -> tuple | None:
        return xi.derived_tables(
            ("interval", dyadic.size, dyadic.max_level),
            dyadic.interval_table_bytes(xi.num_families),
            dyadic.interval_cover_tables)

    @staticmethod
    def _point_cover_rows(xi: FourWiseFamilyBank, dyadic, coordinates: np.ndarray) -> np.ndarray:
        per_point = dyadic.max_level + 1
        n_points = len(coordinates)
        tables = SketchBank._point_tables(xi, dyadic)
        if tables is not None:
            return dyadic.point_cover_sums(tables, coordinates)
        ids, _ = dyadic.point_covers(coordinates)
        nodes = ids.reshape(n_points, per_point)
        rows = SketchBank._sign_rows(xi, nodes[:, 0])
        for step in range(1, per_point):
            rows += SketchBank._sign_rows(xi, nodes[:, step])
        return rows

    @staticmethod
    def _interval_rows(xi: FourWiseFamilyBank, dyadic, lows: np.ndarray,
                       highs: np.ndarray) -> np.ndarray:
        tables = SketchBank._interval_tables(xi, dyadic)
        if tables is not None:
            return dyadic.interval_cover_sums(xi.resolve_table(), tables,
                                              lows, highs)
        steps = dyadic.cover_steps(lows, highs)
        rows = np.zeros((len(lows), xi.num_families),
                        dtype=np.min_scalar_type(-dyadic.cover_sum_bound() - 1))
        for indices, nodes in steps:
            rows[indices] += SketchBank._sign_rows(xi, nodes)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchBank(d={self.dimension}, words={len(self._words)}, "
            f"instances={self._num_instances}, updates={self.num_updates})"
        )
