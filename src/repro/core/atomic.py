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

A bank keys its cells by a *level-band map* (``bands``): per dimension, a
monotone map from each dyadic level to a band.  Every word keeps one *cell*
per tuple of per-dimension bands, holding ``prod_i s_b(i, w[i], r(i))``
where ``s_b`` sums only the nodes the letter reads on band ``b``'s levels.
One band (``bands=None``) is one cell a word, the paper's counter; the
identity map is one cell per level tuple (``split_levels``).  A query pairs
each cell with its own sums on the same bands; the cells summed over bands
are the one-cell counter, whatever the map.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Sequence

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
    bands:
        Per dimension, the band of each dyadic level ``0..max_level``: a
        tuple starting at 0 that steps up by 0 or 1 from level to level.
        Every word keeps one counter cell per tuple of per-dimension bands,
        row-major.  ``None`` is one band in every dimension (one cell a
        word); the identity map is one cell per level tuple.
    """

    #: Upper bound on ``num_instances * ids_per_chunk`` for one vectorised step.
    _CHUNK_ELEMENT_BUDGET = 1 << 23

    #: Elements of one instance tile of a banded bank's float32 rows (512
    #: KB: 4 instances x 2048 boxes x 16 columns), which keeps the tile's
    #: slice of the level tables in cache.
    _SPLIT_ELEMENT_BUDGET = 1 << 17

    #: Counter updates are summed in integers while every partial sum stays
    #: below this: float64 holds each of them exactly, so the integer and
    #: the float kernels agree to the bit.
    _EXACT_INTEGER_LIMIT = 1 << 53

    #: The same limit for the float32 cell matmul of a banded bank.
    _EXACT_FLOAT32_LIMIT = 1 << 24

    def __init__(self, domain: Domain, words: Sequence[Word], num_instances: int,
                 *, seed=0, xi_banks: Sequence[FourWiseFamilyBank] | None = None,
                 bands: Sequence[Sequence[int]] | None = None) -> None:
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
        if bands is not None:
            bands = tuple(tuple(int(band) for band in levels) for levels in bands)
            if [len(levels) for levels in bands] != [
                    dyadic.num_levels for dyadic in domain.dyadics] or any(
                    levels[0] or set(np.diff(levels)) - {0, 1} for levels in bands):
                raise SketchConfigError(
                    f"bands {bands} must map each dimension's levels "
                    f"{[dyadic.num_levels for dyadic in domain.dyadics]} onto bands 0 up by 0 or 1")

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
        # tensor; word j owns the `cells` columns from j * cells, its band
        # tuples in row-major order (one column with one band).  Merges and
        # snapshots operate on the tensor as a whole.
        self._word_index: dict[Word, int] = {
            word: index for index, word in enumerate(self._words)
        }
        # Per dimension, the letters the words use there, in first-use order.
        self._letters = tuple(tuple(dict.fromkeys(word[dim] for word in self._words))
                              for dim in range(domain.dimension))
        self._bands = bands
        self._levels: tuple[int, ...] = (
            (1,) * domain.dimension if bands is None
            else tuple(levels[-1] + 1 for levels in bands))
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
    def bands(self) -> tuple[tuple[int, ...], ...] | None:
        """Per dimension, the band of each level (``None``: one band)."""
        return self._bands

    @property
    def split_levels(self) -> bool:
        """Whether the map is the identity: one cell per level tuple."""
        return self._bands is not None and self._levels == tuple(map(len, self._bands))

    @property
    def levels(self) -> tuple[int, ...]:
        """Cells per dimension: its band count."""
        return self._levels

    @property
    def counter_tensor(self) -> np.ndarray:
        """The full ``(num_instances, num_words x cells)`` counter tensor
        (read-only view).

        Word ``j`` owns the columns ``j * cells`` onwards (one column with
        one band).  This is the bank's actual storage — one
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
            bands=self._bands,
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
        if other.bands != self._bands:
            raise MergeCompatibilityError(
                "cannot merge banks with different level-split bands")
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
        clone._word_index, clone._letters = self._word_index, self._letters
        clone._bands, clone._levels, clone._cells = \
            self._bands, self._levels, self._cells
        clone._matrix = self._matrix + delta._matrix
        clone._updates = self._updates + delta._updates
        return clone

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
            "xi_coefficients": stack_xi_coefficients(self._xi),
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
        letters = set().union(*self._letters)
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
        empty = (np.empty(0, dtype=np.int64),) * 2
        for dim in range(self.dimension):
            if self._xi[dim].resolve_table() is not None:
                self._band_rows(dim, dict.fromkeys(self._letters[dim], empty))

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
        dim, lows, highs = self._query(dim, lows, highs)
        return self._letter_rows(dim, letter, lows, highs).T.astype(np.float64)

    def level_sums(self, dim: int, letter: Letter, lows: np.ndarray,
                   highs: np.ndarray) -> np.ndarray:
        """:meth:`letter_sums` per counter cell of the dimension.

        Returns ``(num_instances, len(lows), bands)`` integers: band ``b``
        sums the letter's nodes on the levels the dimension's map sends to
        ``b`` (one column holding the whole sum on a one-band dimension).
        What a query pairs with a word's cells.
        """
        dim, lows, highs = self._query(dim, lows, highs)
        return self._band_rows(dim, {letter: (lows, highs)})(slice(None))

    # -- internals ----------------------------------------------------------------

    def _query(self, dim: int, lows, highs) -> tuple[int, np.ndarray, np.ndarray]:
        """A query's dimension, checked, and its int64 interval ends."""
        if not 0 <= int(dim) < self.dimension:
            raise DimensionalityError(
                f"dimension {dim} out of range for a {self.dimension}-dimensional bank")
        return int(dim), np.asarray(lows, dtype=np.int64), np.asarray(highs, dtype=np.int64)

    def _ensure_writable(self) -> None:
        """Materialise the counter tensor before mutation (copy-on-write).

        A bank restored with ``copy=False`` may hold a read-only view into a
        memory-mapped snapshot; query-only consumers never pay for a copy,
        while the first mutation transparently promotes it to private memory.
        """
        if not self._matrix.flags.writeable:
            self._matrix = self._matrix.copy()

    def _chunk_size(self) -> int:
        # Per box, the widest a dimension's rows get: a one-band one's largest
        # cover (whole blocks included), a banded one's level rows.
        per_box = max(dyadic.cover_sum_bound() if bands == 1 else len(letters) * dyadic.num_levels
                      for dyadic, letters, bands
                      in zip(self._domain.dyadics, self._letters, self._levels))
        return max(1, self._CHUNK_ELEMENT_BUDGET // (self._num_instances * per_box))

    def _insert_chunk(self, sources: Mapping[Letter, BoxSet], start: int, stop: int,
                      weight: float) -> None:
        self._matrix += weight * self._cell_totals(sources, start, stop)

    def _cell_totals(self, sources: Mapping[Letter, BoxSet], start: int,
                     stop: int) -> np.ndarray:
        """Per-word cell sums over boxes ``start:stop``: ``(instances, words
        x cells)`` float64, exact integers.

        A word's cells are its letters' band rows (:meth:`_band_rows`)
        multiplied out across the dimensions and summed over the boxes.
        Over tiles of instances (a tile's slice of the level tables stays in
        cache), the rows of dimensions ``0..d-2`` are multiplied out and
        contracted with the last one's in one batched matmul, in float32
        while every partial sum is exact there (else float64); each word
        reads its block of the product.  With one band everywhere a word is
        one cell, and only its own letters' rows multiply, box-major as
        gathered: in the narrowest integer type that holds any box's
        product, summed in int64 (past 2^53, :meth:`_float_totals`).
        """
        count = stop - start
        bound = math.prod(self._row_bound(dim) for dim in range(self.dimension))
        # Per dimension each letter's (lows, highs): one pair per source.
        cut = [{id(source): (source.lows[start:stop, dim], source.highs[start:stop, dim])
                for source in sources.values()} for dim in range(self.dimension)]
        ends = [{letter: cut[dim][id(sources[letter])] for letter in letters}
                for dim, letters in enumerate(self._letters)]
        if self._cells == 1:
            whole = {(dim, letter): self._letter_rows(dim, letter, *ends[dim][letter])
                     for dim, letters in enumerate(self._letters) for letter in letters}
            if bound * count >= self._EXACT_INTEGER_LIMIT:
                return self._float_totals(whole)
            product = np.min_scalar_type(-bound - 1)
            sums = np.empty((self._num_instances, len(self._words)), dtype=np.int64)
            for index, word in enumerate(self._words):
                term = whole[0, word[0]]
                if self.dimension > 1:
                    term = term.astype(product)
                    for dim in range(1, self.dimension):
                        np.multiply(term, whole[dim, word[dim]], out=term,
                                    casting="same_kind")
                term.sum(axis=0, dtype=np.int64, out=sums[:, index])
            return sums.astype(np.float64)
        rows = [self._band_rows(dim, ends[dim]) for dim in range(self.dimension)]
        dtype = np.float32 if bound * count < self._EXACT_FLOAT32_LIMIT else np.float64
        widths = [len(letters) * bands for letters, bands in zip(self._letters, self._levels)]
        leading = int(np.prod(widths[:-1]))
        product = np.empty((self._num_instances, leading, widths[-1]), dtype=dtype)
        tile = max(1, self._SPLIT_ELEMENT_BUDGET // (count * max(leading, *widths)))
        # One float row buffer per dimension, reused by every tile.
        buffers = [np.empty((tile, count, width), dtype=dtype) for width in widths]
        for first in range(0, self._num_instances, tile):
            instances = slice(first, first + tile)
            tiles = [buffer[:min(tile, self._num_instances - first)] for buffer in buffers]
            for gather, out in zip(rows, tiles):
                np.copyto(out, gather(instances))
            *outer, last = tiles
            if not outer:
                np.sum(last, axis=1, keepdims=True, out=product[instances])
                continue
            left = outer[0]
            for right in outer[1:]:
                left = (left[:, :, :, None] * right[:, :, None, :]).reshape(
                    len(left), count, -1)
            np.matmul(left.transpose(0, 2, 1), last, out=product[instances])
        product = product.reshape((self._num_instances, *widths))
        totals = np.empty_like(self._matrix)
        for index, word in enumerate(self._words):
            firsts = [letters.index(letter) * bands for letter, letters, bands
                      in zip(word, self._letters, self._levels)]
            block = product[(slice(None), *(
                slice(first, first + bands) for first, bands in zip(firsts, self._levels)))]
            totals[:, index * self._cells:(index + 1) * self._cells] = block.reshape(
                self._num_instances, self._cells)
        return totals

    def _float_totals(self, rows: Mapping[tuple[int, Letter], np.ndarray]
                      ) -> np.ndarray:
        """The one-band word sums of :meth:`_cell_totals` in float64 over
        ``(instances, boxes)``.

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

    def _band_rows(self, dim: int, ends: Mapping[Letter, tuple[np.ndarray, np.ndarray]]
                   ) -> Callable[[slice], np.ndarray]:
        """``rows(instances)``: the ``(instances, boxes, letters x bands)``
        integer rows in ``dim`` of each letter of ``ends`` over its own
        ``(lows, highs)``, letter ``k`` in columns ``k * bands`` onwards: the
        whole-cover sums on one band (:meth:`_letter_rows`), else the masked
        level sums (:meth:`_level_rows`, one gather for letters that share
        their ends) pooled into bands."""
        letters = tuple(ends)
        if self._levels[dim] == 1:
            whole = [self._letter_rows(dim, letter, *ends[letter]) for letter in letters]
            return lambda instances: np.stack(
                [letter_rows[:, instances].T for letter_rows in whole], axis=2)
        shared = len({id(ends[letter]) for letter in letters}) == 1
        parts = [self._level_rows(dim, *ends[group[0]], group)
                 for group in ([letters] if shared else [(letter,) for letter in letters])]

        def rows(instances: slice) -> np.ndarray:
            gathered = [part(instances) for part in parts]
            return self._pooled(dim, gathered[0] if shared
                                else np.concatenate(gathered, axis=2))
        return rows

    def _row_bound(self, dim: int) -> int:
        """A bound on every entry of ``dim``'s rows: a one-band dimension's
        largest cover sum, else its largest band's, at most two nodes a
        level below the top and ``size >> max_level`` blocks on it."""
        dyadic = self._domain.dyadic(dim)
        if self._levels[dim] == 1:
            return dyadic.cover_sum_bound()
        per_level = [2] * dyadic.max_level + [max(2, dyadic.size >> dyadic.max_level)]
        return int(np.bincount(self._bands[dim], weights=per_level).max())

    def _pooled(self, dim: int, rows: np.ndarray) -> np.ndarray:
        """``(instances, boxes, letters x levels)`` level rows summed within
        each band of ``dim``: ``(instances, boxes, letters x bands)``."""
        bands = self._bands[dim]
        if self._levels[dim] == len(bands):
            return rows
        shape = rows.shape[:2]
        starts = np.flatnonzero(np.diff(bands, prepend=-1))
        return np.add.reduceat(
            rows.reshape(*shape, -1, len(bands)), starts, axis=3,
            dtype=np.min_scalar_type(-self._row_bound(dim) - 1)).reshape(*shape, -1)

    def _letter_rows(self, dim: int, letter: Letter, lows: np.ndarray,
                     highs: np.ndarray) -> np.ndarray:
        """``(num_boxes, num_instances)`` integer xi sums: one row per box.

        A leaf is one node's signs.  A cover or point sum is a gather from
        coordinate-indexed tables derived from the xi family's sign table
        (:meth:`~repro.core.dyadic.DyadicDomain.interval_cover_tables`,
        :meth:`~repro.core.dyadic.DyadicDomain.point_cover_table`); a family
        over the sign-table limit, or a domain whose derived tables would
        exceed the byte budget, walks the letter's nodes instead
        (:meth:`_walk`) and adds their signs up.  Every path returns
        a fresh writable integer array, never a table view, and the same
        values: the summands are ±1 integers and no sum leaves its type.
        """
        dyadic, xi = self._domain.dyadic(dim), self._xi[dim]
        read = LETTER_READS[letter]
        ends = read.coordinates(lows, highs)
        if read.kind == "leaf":
            return self._sign_rows(xi, dyadic.size - 1 + np.asarray(ends[0], dtype=np.int64))
        if read.kind == "cover":
            tables = xi.derived_tables(("interval", dyadic.size, dyadic.max_level),
                                       dyadic.interval_table_bytes(xi.num_families),
                                       dyadic.interval_cover_tables)
            if tables is not None:
                return dyadic.interval_cover_sums(xi.resolve_table(), tables, *ends)
        else:
            tables = xi.derived_tables(("point", dyadic.size, dyadic.max_level),
                                       dyadic.point_table_bytes(xi.num_families),
                                       dyadic.point_cover_table)
            if tables is not None:
                rows = dyadic.point_cover_sums(tables, ends[0])
                for coordinates in ends[1:]:
                    rows += dyadic.point_cover_sums(tables, coordinates)
                return rows
        rows = np.zeros((len(lows), xi.num_families),
                        dtype=np.min_scalar_type(-dyadic.cover_sum_bound() - 1))
        for boxes, nodes in self._walk(dim, letter, lows, highs):
            rows[boxes] += self._sign_rows(xi, nodes)
        return rows

    def _walk(self, dim: int, letter: Letter, lows: np.ndarray,
              highs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The nodes ``letter`` reads of the intervals as ``(boxes, nodes)``
        steps, each with at most one node per box, so a step's signs add
        into its boxes' rows without a collision."""
        dyadic, read = self._domain.dyadic(dim), LETTER_READS[letter]
        ends = read.coordinates(lows, highs)
        if read.kind == "cover":
            return dyadic.cover_steps(*ends)
        boxes = np.arange(len(lows))
        if read.kind == "leaf":
            return [(boxes, dyadic.size - 1 + np.asarray(ends[0], dtype=np.int64))]
        return [(boxes, nodes) for coordinates in ends
                for nodes in dyadic.point_covers(coordinates)[0].reshape(
                    len(lows), dyadic.num_levels).T]

    def _level_rows(self, dim: int, lows: np.ndarray, highs: np.ndarray,
                    letters: Sequence[Letter]) -> Callable[[slice], np.ndarray]:
        """``rows(instances)``: the ``(instances, boxes, letters x levels)``
        level sums of ``letters`` over the intervals, letter ``k`` in columns
        ``k * levels`` onwards.  A call gathers the combined high-side level
        table at ``highs`` and the low-side one at ``lows``
        (:meth:`_level_tables`), keeps the columns of ``letters`` and zeroes
        the levels a cover letter's interval holds no node of; without the
        tables each node's sign lands in its level's column (:meth:`_walk`).
        """
        dyadic, xi = self._domain.dyadic(dim), self._xi[dim]
        levels, every = dyadic.num_levels, self._letters[dim]
        tables = self._level_tables(xi, dyadic, every)
        if tables is None:
            walked = np.zeros((len(lows), len(letters), levels, xi.num_families),
                              dtype=dyadic.level_dtype)
            for index, letter in enumerate(letters):
                for boxes, nodes in self._walk(dim, letter, lows, highs):
                    walked[boxes, index, dyadic.node_levels(nodes)] += self._sign_rows(xi, nodes)
            block = walked.transpose(3, 0, 1, 2).reshape(
                xi.num_families, len(lows), len(letters) * levels)
            return lambda instances: block[instances]
        parts = list(zip(tables[::-1], (highs, lows)))
        chosen = None if tuple(letters) == every else list(map(every.index, letters))
        covering = [index for index, letter in enumerate(letters)
                    if LETTER_READS[letter].kind == "cover"]
        mask = None
        if covering and (gaps := dyadic.level_gaps(lows, highs)).any():
            mask = np.ones((len(lows), len(letters), levels), dtype=dyadic.level_dtype)
            mask[:, covering] = ~gaps[:, None]
            mask = mask.reshape(len(lows), -1)

        def rows(instances: slice) -> np.ndarray:
            gathered = None
            for table, coordinates in parts:
                part = np.take(table[instances], coordinates, axis=1)
                gathered = part if gathered is None else np.add(gathered, part, out=gathered)
            if chosen is not None:
                shape = gathered.shape[:2]
                gathered = np.take(gathered.reshape(*shape, len(every), levels),
                                   chosen, axis=2).reshape(*shape, -1)
            if mask is not None:
                np.multiply(gathered, mask, out=gathered)
            return gathered
        return rows

    @staticmethod
    def _level_tables(xi: FourWiseFamilyBank, dyadic, letters) -> tuple | None:
        """``([low,] high)`` instance-major ``(families, size, letters x
        levels)`` tables of the letters' level sums.

        Column block ``k`` of ``high[f, x]`` is what letter ``k`` adds for
        a cover ending at ``x``, of ``low[f, x]`` for one starting there:
        an interval's two sides, the point cover of the end a point letter
        reads, the level-0 node of the end a leaf letter reads, zeros
        elsewhere (:meth:`~repro.core.dyadic.DyadicDomain.level_columns`).
        Each table is one gather from the family's level values; ``low``
        is left out when no letter reads the low end.
        """
        reads_low = any(0 in LETTER_READS[letter].ends for letter in letters)

        def build(signs):
            point, low, high = dyadic.level_columns()
            none = np.zeros_like(point)
            leaf = none.copy()
            leaf[:, 0] = point[:, 0]
            sides = {"cover": (low, high), "points": (point, point), "leaf": (leaf, leaf)}

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

    @staticmethod
    def _sign_rows(xi: FourWiseFamilyBank, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), instances)`` signs of ``ids``."""
        rows = np.empty((len(ids), xi.num_families), dtype=np.int8)
        xi.signs_into(ids, rows.T)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchBank(d={self.dimension}, words={len(self._words)}, "
            f"instances={self._num_instances}, updates={self.num_updates})"
        )
