"""Four-wise independent {-1, +1} random variable families.

Section 2.2 of the paper requires, per atomic sketch and per dimension, a
family of four-wise independent random variables ``xi_i in {-1, +1}`` that
can be generated on the fly from a small seed.  We use the standard
construction based on degree-3 polynomials over a prime field:

    h(i) = a*i^3 + b*i^2 + c*i + d   (mod p),        p = 2^31 - 1
    xi_i = +1 if h(i) is even else -1

A random degree-3 polynomial over GF(p) is a 4-universal hash, so the
values ``h(i)`` of any four distinct ids are independent and uniform over
``[0, p)``.  Taking the parity of a uniform value over an odd-sized range
introduces a bias of ``1/p`` (about 5e-10) relative to a perfect coin,
which is negligible compared to every sampling error in this library; the
deviation from exact four-wise independence is of the same order.

The bank evaluates many independent families (one per atomic-sketch
instance) over arrays of ids at once, which is what makes sketch
construction array-at-a-time instead of per-variable.
"""

from __future__ import annotations

import logging
import threading
import time
import weakref
import zlib
from typing import Callable, Sequence

import numpy as np

from repro.errors import SketchConfigError


def stable_text_hash(parts: Sequence[str]) -> int:
    """A process-independent 32-bit hash of a tuple of strings.

    Unlike the built-in ``hash()``, which is salted per process
    (``PYTHONHASHSEED``), this value is stable across runs, machines and
    Python versions — the property sketch seeds need once they outlive the
    process via service snapshots, where a seed decides merge
    compatibility.
    """
    return zlib.crc32("::".join(parts).encode("utf-8"))


def stable_seed_offset(parts: Sequence[str]) -> int:
    """A deterministic per-name-tuple seed offset in ``[0, 100 000)``.

    Used by the engine's synopsis managers to give every relation pair its
    own xi families while keeping the derivation reproducible: two processes
    derive identical seeds for the same names, so their sketches stay
    merge-compatible.
    """
    return stable_text_hash(parts) % 100_000

#: Prime modulus for the polynomial hash.  ``p = 2^31 - 1`` keeps every
#: intermediate product below 2^62, so the whole evaluation stays inside
#: uint64 arithmetic without overflow.
MERSENNE_PRIME = np.uint64((1 << 31) - 1)

#: Largest id (exclusive) that a family can be evaluated on.
MAX_UNIVERSE = int(MERSENNE_PRIME)

#: Number of polynomial coefficients per family (degree-3 polynomial).
COEFFICIENTS_PER_FAMILY = 4


def coefficients_from_state(state) -> np.ndarray:
    """Serialised xi coefficients as a ``uint64`` array.

    The coefficients *are* the family (evaluation is a pure function of
    them), so a snapshot that stores them is self-describing and a restore
    can verify seed compatibility without re-deriving RNG state.  Accepts a
    ``(num_families, 4)`` array of any integer dtype (e.g. a read-only
    memory-mapped view from a binary snapshot), a stack of such matrices,
    or the nested lists either becomes after a JSON hop.
    """
    try:
        coefficients = np.asarray(state, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError) as exc:
        # e.g. negative or non-numeric values in a hand-edited snapshot.
        raise SketchConfigError(f"malformed xi coefficient state: {exc}") from exc
    if coefficients.ndim < 2 or coefficients.shape[-1] != COEFFICIENTS_PER_FAMILY:
        raise SketchConfigError(
            f"xi coefficient state must have {COEFFICIENTS_PER_FAMILY} "
            f"coefficients per family, got shape {coefficients.shape}"
        )
    return coefficients


def stack_xi_coefficients(banks: Sequence["FourWiseFamilyBank"]) -> np.ndarray:
    """One contiguous ``(dims, num_families, 4)`` tensor over per-dim banks.

    All banks of one sketch share ``num_families``, so the per-dimension
    coefficient matrices stack into a single array — the shape binary
    snapshots store (and memory-map back) in one piece.
    """
    if not banks:
        raise SketchConfigError("at least one xi bank is required")
    return np.ascontiguousarray(
        np.stack([bank.coefficients for bank in banks]), dtype=np.uint64)


#: Table cells evaluated per step of a build: keeps the two uint64 scratch
#: blocks (8 bytes per cell each) inside the CPU caches.
_BUILD_CELLS = 1 << 16

#: One record per sign-table build, one per family that stays on the
#: polynomial because its table would exceed ``_TABLE_BYTE_LIMIT``.
_LOG = logging.getLogger("repro.xi")

#: Process-wide totals behind :func:`sign_table_stats`.
_COUNTERS = {"sign_table_builds": 0, "sign_table_build_seconds": 0.0,
             "direct_hash_ids": 0}
_COUNTERS_LOCK = threading.Lock()


def _count(counter: str, amount: float) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[counter] += amount


def _build_signs(universe_size: int, coefficients: np.ndarray) -> np.ndarray:
    """The full ``(universe_size, num_families)`` sign matrix.

    Evaluates ``a*x^3 + b*x^2 + c*x + d`` over precomputed powers of ``x``
    (mod p) instead of Horner's rule: every product stays below 2^62 and
    the sum ``h`` of all four terms below 2^64, so one reduction per id
    replaces Horner's four — the residue, and with it the parity, is the
    same integer either way.  Only the parity is needed, and ``p`` is odd:
    ``h mod p = h - (h // p) * p`` has the parity of ``h ^ (h // p)``, so a
    division by an invariant and an xor stand in for the remainder.  The
    xor's low byte carries that bit, so it lands in the int8 rows directly
    and the parity-to-sign steps run at 8 bits.  Works a block of ids at a
    time, families along the fast axis, in two reused scratch blocks.
    """
    _count("sign_table_builds", 1)
    x = np.arange(universe_size, dtype=np.uint64)[:, None]
    x2 = x * x % MERSENNE_PRIME
    x3 = x2 * x % MERSENNE_PRIME
    a, b, c, d = np.ascontiguousarray(coefficients.T)
    families = len(coefficients)
    signs = np.empty((universe_size, families), dtype=np.int8)
    step = max(1, _BUILD_CELLS // families)
    scratch = np.empty((2, min(step, universe_size), families), dtype=np.uint64)
    for start in range(0, universe_size, step):
        ids = slice(start, min(start + step, universe_size))
        h, term = scratch[0, :ids.stop - start], scratch[1, :ids.stop - start]
        np.multiply(x3[ids], a, out=h)
        np.multiply(x2[ids], b, out=term)
        np.add(h, term, out=h)
        np.multiply(x[ids], c, out=term)
        np.add(h, term, out=h)
        np.add(h, d, out=h)
        np.floor_divide(h, MERSENNE_PRIME, out=term)
        rows = signs[ids]
        np.bitwise_xor(h, term, out=rows, casting="unsafe")
        # parity 0 -> +1, parity 1 -> -1
        np.bitwise_and(rows, np.int8(1), out=rows)
        np.left_shift(rows, np.int8(1), out=rows)
        np.subtract(np.int8(1), rows, out=rows)
    return signs


class _XiFamily:
    """One xi family of the process: its sign table and its lifetime.

    A family is a pure function of ``(universe size, coefficients)``, so
    every bank over it in the process — shard estimators, merged views,
    delta trackers, a router's templates, reloaded services — shares one
    record.  The first
    evaluation builds the table, if it fits the byte limit, and the record
    holds everything derived from the table.

    ``signs`` is ``None`` until built, then the read-only, C-contiguous
    ``(universe_size, num_families)`` int8 matrix ``xi[id, family]``: one
    id's signs for every family are one contiguous row, so a lookup reads
    ``num_families`` adjacent bytes.  The registry holds the record weakly:
    the banks are its only strong referents, so the table and everything
    cached in ``_derived`` die with the last bank.
    """

    __slots__ = ("universe_size", "coefficients", "signs", "over_limit",
                 "_derived", "_lock", "__weakref__")

    def __init__(self, universe_size: int, coefficients: np.ndarray) -> None:
        self.universe_size = universe_size
        self.coefficients = coefficients
        self.signs: np.ndarray | None = None
        self.over_limit = False
        self._derived: dict = {}
        # Serialises the build and derived builds of this family; other
        # families proceed in parallel.
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes held: the signs plus every derived table built so far."""
        signs = 0 if self.signs is None else self.signs.nbytes
        return signs + sum(array.nbytes
                           for arrays in list(self._derived.values())
                           for array in arrays)

    def resolve(self, cell_limit: int) -> np.ndarray | None:
        """The sign table, built by the first call whose ``cell_limit`` it
        fits; ``None`` while it does not."""
        if self.signs is None:
            with self._lock:
                if self.signs is None:
                    self._build(cell_limit)
        return self.signs

    def _build(self, cell_limit: int) -> None:
        """Build the table, under the lock — or say that it is too large,
        once per family."""
        families = len(self.coefficients)
        if families * self.universe_size > cell_limit:
            if not self.over_limit:
                self.over_limit = True
                _LOG.warning(
                    "xi family stays on direct hashing: universe=%d "
                    "families=%d bytes=%d over the limit of %d",
                    self.universe_size, families,
                    families * self.universe_size, cell_limit)
            return
        start = time.perf_counter()
        signs = _build_signs(self.universe_size, self.coefficients)
        signs.setflags(write=False)
        self.signs = signs
        seconds = time.perf_counter() - start
        _count("sign_table_build_seconds", seconds)
        _LOG.info("xi family built: universe=%d families=%d bytes=%d "
                  "ms=%.1f", self.universe_size, families, signs.nbytes,
                  seconds * 1e3)

    def derived(self, key, build: Callable[[np.ndarray], tuple]) -> tuple:
        """``build(signs)`` memoised under ``key``: a tuple of read-only arrays.

        Built once per family however many threads ask (concurrent
        estimates reach a fresh table at the same moment).
        """
        arrays = self._derived.get(key)
        if arrays is None:
            with self._lock:
                arrays = self._derived.get(key)
                if arrays is None:
                    start = time.perf_counter()
                    arrays = tuple(build(self.signs))
                    for array in arrays:
                        array.setflags(write=False)
                    self._derived[key] = arrays
                    _count("sign_table_build_seconds",
                           time.perf_counter() - start)
        return arrays


#: Live families by ``(universe_size, coefficient bytes)``.
_FAMILIES: "weakref.WeakValueDictionary[tuple, _XiFamily]" = (
    weakref.WeakValueDictionary())
_FAMILIES_LOCK = threading.Lock()


def _interned_family(universe_size: int, coefficients: np.ndarray) -> _XiFamily:
    key = (universe_size, coefficients.tobytes())
    with _FAMILIES_LOCK:
        family = _FAMILIES.get(key)
        if family is None:
            family = _FAMILIES[key] = _XiFamily(universe_size, coefficients)
    return family


def sign_table_stats() -> dict:
    """The process's xi tables and what evaluating xi has cost so far.

    ``sign_tables`` / ``sign_table_bytes`` count the live tables (signs +
    derived tables); ``sign_table_builds`` and ``direct_hash_ids`` are
    running totals of table builds and of ids evaluated through the
    polynomial instead, which only a family over ``_TABLE_BYTE_LIMIT``
    does.  ``sign_table_build_seconds`` is the wall time the builds took,
    derived tables included.
    """
    with _FAMILIES_LOCK:
        families = list(_FAMILIES.values())
    tables = [family for family in families if family.signs is not None]
    with _COUNTERS_LOCK:
        counters = dict(_COUNTERS)
    return {"sign_tables": len(tables),
            "sign_table_bytes": sum(family.nbytes for family in tables),
            **counters}


class FourWiseFamilyBank:
    """``num_families`` independent four-wise independent sign families.

    Parameters
    ----------
    num_families:
        How many independent families (atomic-sketch instances) to create.
    universe_size:
        Ids passed to :meth:`signs` must be in ``[0, universe_size)``.
    seed:
        Seed (or :class:`numpy.random.Generator`) used to draw the
        polynomial coefficients.  Two banks created from the same seed and
        shape produce identical families, which is how the left and right
        join inputs share their xi families.
    """

    __slots__ = ("_coefficients", "_universe_size", "_family")

    #: Precompute a full sign table when it would use at most this many bytes.
    _TABLE_BYTE_LIMIT = 1 << 28

    #: Largest set of tables :meth:`derived_tables` will build for one key.
    _DERIVED_BYTE_LIMIT = 1 << 26

    def __init__(self, num_families: int, universe_size: int, seed) -> None:
        if num_families < 1:
            raise SketchConfigError("at least one family is required")
        if universe_size < 1:
            raise SketchConfigError("universe size must be positive")
        if universe_size > MAX_UNIVERSE:
            raise SketchConfigError(
                f"universe size {universe_size} exceeds the maximum of {MAX_UNIVERSE}"
            )
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        coeffs = rng.integers(
            0, int(MERSENNE_PRIME), size=(num_families, COEFFICIENTS_PER_FAMILY), dtype=np.int64
        )
        # A zero leading coefficient merely lowers the degree; the family is
        # still 4-universal because all four coefficients are random.
        self._coefficients = coeffs.astype(np.uint64)
        self._universe_size = int(universe_size)
        self._family: _XiFamily | None = None

    # -- introspection ---------------------------------------------------

    @property
    def num_families(self) -> int:
        return self._coefficients.shape[0]

    @property
    def universe_size(self) -> int:
        return self._universe_size

    @property
    def coefficients(self) -> np.ndarray:
        """The ``(num_families, 4)`` coefficient matrix (read-only view)."""
        view = self._coefficients.view()
        view.setflags(write=False)
        return view

    # -- (de)serialisation -------------------------------------------------

    @classmethod
    def from_coefficients(cls, coefficients, universe_size: int
                          ) -> "FourWiseFamilyBank":
        """Rebuild a bank from serialised coefficients (exact same families)."""
        coefficients = coefficients_from_state(coefficients)
        if coefficients.ndim != 2:
            raise SketchConfigError(
                f"a bank needs a (num_families, {COEFFICIENTS_PER_FAMILY}) "
                f"coefficient matrix, got shape {coefficients.shape}"
            )
        bank = cls(coefficients.shape[0], universe_size, seed=0)
        bank._coefficients = np.ascontiguousarray(coefficients)
        return bank

    def matches_coefficients(self, state) -> bool:
        """Whether serialised coefficients describe these exact families.

        ``state`` may be an ndarray (possibly a read-only memory-mapped
        snapshot view), another bank's ``coefficients``, or the nested
        lists a JSON hop makes of either.  Used by merge/restore compatibility checks, so
        sketch modules never have to compare raw coefficient arrays.
        """
        try:
            coefficients = coefficients_from_state(state)
        except SketchConfigError:
            return False
        return (coefficients.shape == self._coefficients.shape
                and np.array_equal(coefficients, self._coefficients))

    # -- evaluation --------------------------------------------------------

    def _hash(self, ids: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Evaluate the degree-3 polynomials at ``ids`` (Horner's rule).

        ``ids`` has shape ``(m,)`` and ``coefficients`` ``(k, 4)``; the result
        has shape ``(k, m)`` with values in ``[0, p)``.  Every intermediate
        product stays below 2^62, so plain uint64 arithmetic is exact.
        """
        _count("direct_hash_ids", ids.size)
        x = ids.astype(np.uint64)[None, :]
        a = coefficients[:, 0][:, None]
        b = coefficients[:, 1][:, None]
        c = coefficients[:, 2][:, None]
        d = coefficients[:, 3][:, None]
        h = (a * x) % MERSENNE_PRIME
        h = ((h + b) * x) % MERSENNE_PRIME
        h = ((h + c) * x) % MERSENNE_PRIME
        h = (h + d) % MERSENNE_PRIME
        return h

    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self._universe_size):
            raise SketchConfigError(
                f"ids must be within [0, {self._universe_size}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )

    def _xi_family(self) -> _XiFamily:
        """This bank's interned family record (looked up on first use)."""
        family = self._family
        if family is None:
            family = self._family = _interned_family(self._universe_size,
                                                     self._coefficients)
        return family

    def resolve_table(self) -> np.ndarray | None:
        """The family's sign table, built on first use; ``None`` over the limit.

        The table belongs to the *family*, which every bank over the same
        ``(universe, coefficients)`` in the process shares: the first
        evaluation through any of them builds it, if it needs at most
        ``_TABLE_BYTE_LIMIT`` bytes, and the rest read it.  A family over
        the limit stays on direct polynomial evaluation and logs one
        WARNING.  The table is the read-only ``(universe_size,
        num_families)`` matrix: row ``i`` holds every family's sign of id
        ``i``.
        """
        return self._xi_family().resolve(self._TABLE_BYTE_LIMIT)

    def derived_tables(self, key, nbytes: int,
                       build: Callable[[np.ndarray], tuple]) -> tuple | None:
        """Lookup tables computed from the sign table, shared like it.

        ``build(signs)`` returns a tuple of arrays totalling ``nbytes``; the
        result is cached beside the interned sign table under ``key`` (made
        read-only, built once per process) and freed with it.  ``None``
        when ``nbytes`` exceeds ``_DERIVED_BYTE_LIMIT``, checked before
        anything is allocated, or when the family has no sign table
        (:meth:`resolve_table`).
        """
        if nbytes > self._DERIVED_BYTE_LIMIT or self.resolve_table() is None:
            return None
        return self._xi_family().derived(key, build)

    def signs(self, ids, *, families: slice | np.ndarray | None = None) -> np.ndarray:
        """Sign matrix ``xi[family, id]`` for the requested ids.

        Parameters
        ----------
        ids:
            Integer array of shape ``(m,)`` with values in ``[0, universe_size)``.
        families:
            Optional subset (slice or index array) of families to evaluate.

        Returns
        -------
        ``(k, m)`` array of ``int8`` values in ``{-1, +1}``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            ids = ids.ravel()
        self._check_ids(ids)
        table = self.resolve_table()
        if table is not None:
            rows = np.take(table, ids, axis=0)
            return (rows if families is None else rows[:, families]).T
        coeffs = self._coefficients if families is None else self._coefficients[families]
        h = self._hash(ids.astype(np.uint64), coeffs)
        return np.where(h & np.uint64(1), np.int8(-1), np.int8(1))

    def signs_into(self, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather all families' signs for ``ids`` into a caller-owned buffer.

        ``out`` must be an int8 array of shape ``(num_families, len(ids))``
        in any memory layout; the transpose of a C-contiguous ``(len(ids),
        num_families)`` array — what the cover-walk path passes — receives
        the table's rows without a strided write.  Returns ``out``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            ids = ids.ravel()
        self._check_ids(ids)
        table = self.resolve_table()
        if table is not None:
            np.take(table, ids, axis=0, out=out.T)
        else:
            h = self._hash(ids.astype(np.uint64), self._coefficients)
            parity = (h & np.uint64(1)).astype(np.int8)
            # parity 0 -> +1, parity 1 -> -1: identical values to the
            # np.where() form used by signs().
            np.multiply(parity, np.int8(-2), out=parity)
            np.add(parity, np.int8(1), out=out)
        return out

    def signs_for_family(self, family: int, ids) -> np.ndarray:
        """Convenience wrapper: signs of a single family, shape ``(m,)``."""
        return self.signs(ids, families=np.array([family]))[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FourWiseFamilyBank(num_families={self.num_families}, "
            f"universe_size={self._universe_size})"
        )
