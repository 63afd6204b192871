"""Compiled sketch programs: a shared estimator IR and its vectorised executor.

Every estimator in this library reduces to the same pipeline — per-dimension
xi *letter sums* over canonical dyadic covers, products across dimensions and
across sketch banks, a linear combination of those products per atomic-sketch
instance, then median-of-means boosting.  The eight families only differ in
*which* products they combine.  This module lifts that shared structure into
a small declarative IR:

* :class:`CounterRef` — the per-instance counter cells of one word in one
  :class:`~repro.core.atomic.SketchBank` (the *data side*),
* :class:`LetterSumRef` — a per-instance xi sum over one dimension's dyadic
  cover of a query coordinate interval, one column per counter cell of the
  dimension (the *query side*),
* :class:`ProgramTerm` — one coefficient times the product of counter and
  letter-sum factors,
* :class:`SketchProgram` — an ordered tuple of terms plus the reduction spec
  (a :class:`~repro.core.boosting.BoostingPlan`) and the input cardinalities
  carried into the :class:`~repro.core.result.EstimateResult`.

Estimator families *lower* their queries into programs (see
:meth:`repro.core.estimator.SketchEstimator.lower`) and a shared
:class:`ProgramExecutor` runs whole batches of programs — across different
queries, different words and different estimator families — with three levels
of sharing:

1. identical letter-sum requests — same xi family, dyadic shape, letter
   and interval — are computed **once per batch** (and optionally cached
   across batches in a bounded LRU — letter sums depend only on the bank's
   xi families and domain, never on its counters, so cache entries never go
   stale, and survive delta-applied merged views that alias those
   families),
2. programs with the same term *structure* (same banks, words, letters and
   coefficients — e.g. a batch of range queries against one sketch) are
   evaluated as single ``(instances, programs)`` matrix kernels,
3. programs sharing ``(num_instances, plan)`` are boosted by one
   :func:`~repro.core.boosting.median_of_means_batch` reduction.

Over one-cell banks execution is **bit-identical** to the historical
scalar paths: the same accumulation order, the same elementwise kernels,
the same reductions.  A level-split bank's term contracts its counter cells
with its letter sums' levels; that is exact — and so independent of how a
batch is grouped — while the counters are integers (integer update
weights), as every factor and product then stays below 2^53.  The executor
is a pure execution-strategy layer, never a numerics change.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.atomic import Letter, SketchBank, Word
from repro.core.boosting import BoostingPlan, median_of_means_batch
from repro.core.result import EstimateResult
from repro.errors import SketchConfigError

__all__ = [
    "CounterRef",
    "LetterSumRef",
    "ProgramTerm",
    "SketchProgram",
    "ProgramExecutor",
    "ExecutorStats",
    "replicate_estimate",
    "describe_program",
    "letter_cover_size",
    "default_executor",
]


# -- the IR -------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterRef:
    """The per-instance counter cells of one word in one bank.

    Banks compare by identity: two refs are interchangeable exactly when
    they read the same live counter storage.
    """

    bank: SketchBank
    word: Word


@dataclass(frozen=True)
class LetterSumRef:
    """A per-instance xi letter sum over one dimension's coordinate interval.

    Resolves to ``bank.level_sums(dim, letter, [low], [high])[:, 0]`` — the
    query-side kernel of the paper's estimators, an integer
    ``(instances, levels)`` matrix (one column on a one-cell bank).  The
    value depends only on the bank's xi families, dyadic domain and layout
    (never on its counters), which is what makes these safely cacheable
    across queries and batches.
    """

    bank: SketchBank
    dim: int
    letter: Letter
    low: int
    high: int

    @property
    def key(self) -> tuple:
        """The executor's sharing key: xi identity, dyadic shape, layout,
        letter, interval.

        A letter sum is a pure function of the dimension's xi family, the
        dyadic domain shape and the interval — the *bank* only carries them.
        Keying on ``(xi bank, dyadic size, max level, letter, interval)``
        instead of the bank itself means two banks that alias one xi family
        over the same dyadic structure share cache entries, which is what
        keeps the letter-sum cache warm across delta-applied merged views
        (:meth:`repro.core.atomic.SketchBank.clone_with_delta` aliases the
        xi families of the view it refreshes).
        """
        dyadic = self.bank.domain.dyadic(self.dim)
        return (self.bank.xi_banks[self.dim], dyadic.size, dyadic.max_level,
                self.bank.levels[self.dim], self.letter, self.low, self.high)



@dataclass(frozen=True)
class ProgramTerm:
    """One coefficient times a product of counter and letter-sum factors.

    The counter factors multiply in tuple order (the pairwise instance
    combination of the join families: instance ``i`` of every bank
    contributes to instance ``i`` of the product); the letter-sum factors
    multiply in tuple order, and their product scales the counters'.
    """

    coefficient: float
    counters: tuple[CounterRef, ...] = ()
    letter_sums: tuple[LetterSumRef, ...] = ()


@dataclass(frozen=True)
class SketchProgram:
    """A compiled estimate: terms, reduction spec and result metadata.

    ``replicas`` expresses the query-less batch contract (N requests against
    a join estimator share one set of per-instance values): the executor
    evaluates the program once and returns ``replicas`` results, each owning
    its own arrays.
    """

    terms: tuple[ProgramTerm, ...]
    num_instances: int
    plan: BoostingPlan
    left_count: int
    right_count: int = 1
    replicas: int = 1

    def __post_init__(self) -> None:
        if not self.terms:
            raise SketchConfigError("a sketch program needs at least one term")
        if self.replicas < 1:
            raise SketchConfigError("a sketch program needs at least one replica")

    @property
    def letter_sum_refs(self) -> list[LetterSumRef]:
        """Every letter-sum request of the program, in term order."""
        return [ref for term in self.terms for ref in term.letter_sums]

    def structure_key(self) -> tuple:
        """Groups programs the executor can evaluate as one matrix kernel.

        Two programs share a structure when they differ only in the
        *intervals* of their letter-sum requests — same banks, words,
        letters, coefficients, instance count and reduction plan.
        """
        return (
            self.num_instances,
            self.plan,
            tuple(
                (
                    term.coefficient,
                    term.counters,
                    tuple((ref.bank, ref.dim, ref.letter)
                          for ref in term.letter_sums),
                )
                for term in self.terms
            ),
        )


# -- result replicas ----------------------------------------------------------------


def replicate_estimate(result: EstimateResult, count: int) -> list[EstimateResult]:
    """``count`` independent copies of one estimate.

    Matches the scalar-loop contract: every returned result owns its own
    arrays, so in-place post-processing of one entry cannot leak into the
    others.  The estimator values themselves are computed only once.
    """
    results = [result]
    for _ in range(count - 1):
        results.append(EstimateResult(
            estimate=result.estimate,
            instance_values=result.instance_values.copy(),
            group_means=result.group_means.copy(),
            left_count=result.left_count,
            right_count=result.right_count,
        ))
    return results


# -- the executor -------------------------------------------------------------------


def _weak_key(key: tuple) -> tuple:
    """A cache key that does not keep the xi bank alive (see _LetterSumCache)."""
    return (weakref.ref(key[0]),) + key[1:]


@dataclass
class ExecutorStats:
    """Lifetime counters of one executor (all mutated under its lock)."""

    runs: int = 0
    programs: int = 0
    results: int = 0
    kernel_calls: int = 0
    letter_sums_requested: int = 0
    letter_sums_computed: int = 0
    cache_hits: int = 0

    def copy(self) -> "ExecutorStats":
        return replace(self)

    def as_dict(self) -> dict:
        """JSON form for the service ``stats`` op."""
        return asdict(self)


class _LetterSumCache:
    """A bounded LRU of resolved letter-sum vectors (callers lock).

    Keys are ``LetterSumRef.key`` tuples with the xi family bank replaced
    by a **weak** reference: a live xi bank hashes/compares by identity (so
    lookups are exact and id reuse after collection can never alias — a
    dead weakref only equals itself), while a discarded family is *not*
    pinned by its cached vectors; its entries become unmatchable and age
    out of the LRU.  Because delta-applied merged views alias the xi banks
    of the views they refresh (sketch linearity: letter sums never depend
    on counters), a flush-and-delta-apply cycle keeps every entry live —
    only a full rebuild, which redraws the families, orphans them.
    """

    def __init__(self, max_entries: int) -> None:
        self._max = int(max_entries)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        vector = self._entries.get(key)
        if vector is not None:
            self._entries.move_to_end(key)
        return vector

    def put(self, key: tuple, vector: np.ndarray) -> None:
        self._entries[key] = vector
        self._entries.move_to_end(key)
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)


class ProgramExecutor:
    """Runs batches of :class:`SketchProgram` objects against shared kernels.

    Parameters
    ----------
    cache_size:
        Capacity (entries) of the cross-batch letter-sum LRU.  ``0``
        disables cross-batch caching; identical requests *within* one run
        are still computed once (intra-batch sharing is structural, not a
        cache policy).  Cached vectors are read-only and never go stale:
        letter sums depend only on a bank's xi families and domain.
    """

    #: Programs evaluated per vectorised round; bounds the transient
    #: ``(instances, programs)`` matrices while huge batches stream.
    CHUNK = 4096

    def __init__(self, *, cache_size: int = 8192) -> None:
        if cache_size < 0:
            raise SketchConfigError("cache_size must be non-negative")
        self._cache = _LetterSumCache(cache_size) if cache_size else None
        self._lock = threading.Lock()
        self._stats = ExecutorStats()

    @property
    def stats(self) -> ExecutorStats:
        with self._lock:
            return self._stats.copy()

    @property
    def cache_entries(self) -> int:
        with self._lock:
            return len(self._cache) if self._cache is not None else 0

    # -- the entry point ----------------------------------------------------------

    def run(self, programs: Sequence[SketchProgram]) -> list[EstimateResult]:
        """Evaluate and boost a batch of programs.

        Returns one :class:`EstimateResult` per *logical* query: a program
        with ``replicas == k`` contributes ``k`` consecutive results.
        Result order follows program order, and no result depends on the
        batch it ran in.
        """
        programs = list(programs)
        results: list[EstimateResult] = []
        for start in range(0, len(programs), self.CHUNK):
            results.extend(self._run_chunk(programs[start:start + self.CHUNK]))
        with self._lock:
            self._stats.runs += 1
            self._stats.programs += len(programs)
            self._stats.results += len(results)
        return results

    # -- execution ----------------------------------------------------------------

    def _run_chunk(self, programs: list[SketchProgram]) -> list[EstimateResult]:
        if not programs:
            return []
        resolved = self._resolve_letter_sums(programs)
        columns = self._chunk_values(programs, resolved)

        # One boosting reduction per (num_instances, plan) group, rows in
        # program order within the group — bit-identical per row to scalar
        # median_of_means, so the grouping itself is invisible.
        estimates: list[float] = [0.0] * len(programs)
        means: list[np.ndarray] = [None] * len(programs)  # type: ignore[list-item]
        reduction_groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for position, program in enumerate(programs):
            key = (program.num_instances, program.plan)
            reduction_groups.setdefault(key, []).append(position)
        for (_, plan), positions in reduction_groups.items():
            matrix = np.stack([columns[position] for position in positions])
            boosted, group_means = median_of_means_batch(matrix, plan)
            for row, position in enumerate(positions):
                estimates[position] = float(boosted[row])
                means[position] = group_means[row]

        results: list[EstimateResult] = []
        for position, program in enumerate(programs):
            result = EstimateResult(
                estimate=estimates[position],
                instance_values=np.ascontiguousarray(columns[position]),
                group_means=means[position].copy(),
                left_count=program.left_count,
                right_count=program.right_count,
            )
            if program.replicas == 1:
                results.append(result)
            else:
                results.extend(replicate_estimate(result, program.replicas))
        return results

    def _chunk_values(self, programs: list[SketchProgram],
                      resolved: dict[tuple, np.ndarray]) -> list[np.ndarray]:
        """Per-program value vectors, evaluated one structure group at a time."""
        columns: list[np.ndarray] = [None] * len(programs)  # type: ignore[list-item]
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for position, program in enumerate(programs):
            groups.setdefault(program.structure_key(), []).append(position)
        for positions in groups.values():
            members = [programs[position] for position in positions]
            matrix = self._group_values(members, resolved)
            for column, position in enumerate(positions):
                columns[position] = matrix[:, column]
        return columns

    @staticmethod
    def _group_values(programs: list[SketchProgram],
                      resolved: dict[tuple, np.ndarray]) -> np.ndarray:
        """``(num_instances, len(programs))`` values for one structure group.

        Over one-cell banks the accumulation mirrors the historical scalar
        paths exactly: counters multiply first (in ref order), letter sums
        multiply next (in dimension order), the coefficient scales the
        product, and terms accumulate into a zero-initialised matrix in
        term order.  Over a level-split bank a term's cells are contracted
        with its letter sums' levels instead, one dimension at a time.
        """
        template = programs[0]
        instances = template.num_instances
        values = np.zeros((instances, len(programs)), dtype=np.float64)
        # Per slot (instances, programs, levels), one level on a one-cell
        # bank; terms that read the same letter sums share the stack.
        stacked: dict[tuple, np.ndarray] = {}
        for term_index, term in enumerate(template.terms):
            cells: np.ndarray | None = None
            for ref in term.counters:
                block = ref.bank.word_cells(ref.word)
                cells = block if cells is None else cells * block
            sums = []
            for slot in range(len(term.letter_sums)):
                keys = tuple(p.terms[term_index].letter_sums[slot].key for p in programs)
                if keys not in stacked:
                    stacked[keys] = np.stack([resolved[key] for key in keys],
                                             axis=1).astype(np.float64)
                sums.append(stacked[keys])
            if any(slot.shape[2] > 1 for slot in sums):
                # A level-split bank is 1-D or 2-D: the first slot's levels
                # contract with the cells in one batched matmul, (instances,
                # programs, levels of the second), and the second's levels
                # elementwise.
                term_values = np.matmul(
                    sums[0], cells.reshape(instances, sums[0].shape[2], -1))
                if len(sums) == 2:
                    term_values = np.einsum("ipl,ipl->ip", term_values, sums[1])
                else:
                    term_values = term_values[:, :, 0]
                values += term.coefficient * term_values
                continue
            sum_product: np.ndarray | None = None
            for slot in sums:
                sum_product = (slot[:, :, 0] if sum_product is None
                               else sum_product * slot[:, :, 0])
            if sum_product is None:
                values += term.coefficient * cells
            elif cells is None:
                values += term.coefficient * sum_product
            else:
                values += term.coefficient * (cells * sum_product)
        return values

    def _resolve_letter_sums(self, programs: Iterable[SketchProgram]
                             ) -> dict[tuple, np.ndarray]:
        """Resolve every letter-sum request of a chunk, sharing aggressively.

        Identical requests resolve to one vector; cache hits skip the
        kernel entirely; misses are grouped by ``(xi bank, dyadic shape,
        letter)`` and computed in **one** vectorised kernel call per group
        (column ``j`` of a batched kernel is bit-identical to a
        single-interval call).
        """
        resolved: dict[tuple, np.ndarray] = {}
        # Misses grouped by the interval-free key prefix (xi bank, dyadic
        # shape, letter); any member ref's (bank, dim) serves as the kernel
        # representative — every ref in the group reduces over the same xi
        # family and dyadic structure, so the results are interchangeable.
        missing: OrderedDict[tuple, OrderedDict[tuple[int, int], None]] = \
            OrderedDict()
        representatives: dict[tuple, LetterSumRef] = {}
        requested = 0
        hits = 0
        for program in programs:
            for term in program.terms:
                for ref in term.letter_sums:
                    requested += 1
                    key = ref.key
                    if key in resolved:
                        continue
                    if self._cache is not None:
                        with self._lock:
                            cached = self._cache.get(_weak_key(key))
                        if cached is not None:
                            resolved[key] = cached
                            hits += 1
                            continue
                    group_key = key[:-2]
                    group = missing.setdefault(group_key, OrderedDict())
                    representatives.setdefault(group_key, ref)
                    group.setdefault((ref.low, ref.high))
                    resolved[key] = None  # type: ignore[assignment]

        kernel_calls = 0
        computed = 0
        for group_key, intervals in missing.items():
            rep = representatives[group_key]
            lows = np.fromiter((low for low, _ in intervals), dtype=np.int64,
                               count=len(intervals))
            highs = np.fromiter((high for _, high in intervals),
                                dtype=np.int64, count=len(intervals))
            sums = rep.bank.level_sums(rep.dim, rep.letter, lows, highs)
            kernel_calls += 1
            computed += len(intervals)
            for index, (low, high) in enumerate(intervals):
                # An owned copy: a view would pin the whole batch matrix
                # for as long as one of its columns stays cached.
                vector = sums[:, index].copy()   # (instances, levels) integers
                vector.setflags(write=False)
                key = group_key + (low, high)
                resolved[key] = vector
                if self._cache is not None:
                    with self._lock:
                        self._cache.put(_weak_key(key), vector)
        with self._lock:
            self._stats.letter_sums_requested += requested
            self._stats.letter_sums_computed += computed
            self._stats.kernel_calls += kernel_calls
            self._stats.cache_hits += hits
        return resolved


_DEFAULT_EXECUTOR: ProgramExecutor | None = None
_DEFAULT_EXECUTOR_LOCK = threading.Lock()


def default_executor() -> ProgramExecutor:
    """The process-wide executor the estimator families run on.

    Deliberately created **without** a cross-batch cache: a scalar
    ``estimate`` call must cost exactly what it always did, and intra-batch
    sharing (the structural win) needs no cache.  Long-lived serving layers
    that want cross-batch reuse own their own caching executor (see
    :class:`~repro.service.service.EstimationService`).
    """
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        with _DEFAULT_EXECUTOR_LOCK:
            if _DEFAULT_EXECUTOR is None:
                _DEFAULT_EXECUTOR = ProgramExecutor(cache_size=0)
    return _DEFAULT_EXECUTOR


# -- introspection ------------------------------------------------------------------


def letter_cover_size(ref: LetterSumRef) -> int:
    """How many xi variables the letter sum of ``ref`` touches.

    This is the size of the letter-specific dyadic cover — the quantity the
    paper's update/query cost analysis counts (O(d log n) per box).
    """
    dyadic = ref.bank.domain.dyadic(ref.dim)
    lows = np.asarray([ref.low], dtype=np.int64)
    highs = np.asarray([ref.high], dtype=np.int64)
    if ref.letter is Letter.INTERVAL:
        _, lengths = dyadic.covers(lows, highs)
        return int(lengths[0])
    if ref.letter is Letter.ENDPOINTS:
        _, low_lengths = dyadic.point_covers(lows)
        _, high_lengths = dyadic.point_covers(highs)
        return int(low_lengths[0] + high_lengths[0])
    if ref.letter is Letter.LOWER_POINT:
        _, lengths = dyadic.point_covers(lows)
        return int(lengths[0])
    if ref.letter is Letter.UPPER_POINT:
        _, lengths = dyadic.point_covers(highs)
        return int(lengths[0])
    # Leaf letters touch exactly one level-0 variable.
    return 1


def _word_text(word: Word) -> str:
    return "".join(str(letter) for letter in word)


def describe_program(program: SketchProgram) -> dict:
    """A JSON-friendly description of one compiled program.

    Used by ``repro-spatial estimate --explain`` to show what an estimate
    *is*: the word products and coefficients, the letter-sum requests with
    their dyadic cover sizes, and the reduction plan.
    """
    terms = []
    for term in program.terms:
        terms.append({
            "coefficient": term.coefficient,
            "counters": [_word_text(ref.word) for ref in term.counters],
            "letter_sums": [
                {"dim": ref.dim, "letter": str(ref.letter),
                 "interval": [ref.low, ref.high]}
                for ref in term.letter_sums
            ],
        })
    requests = []
    seen: set[tuple] = set()
    for ref in program.letter_sum_refs:
        key = ref.key
        if key in seen:
            continue
        seen.add(key)
        requests.append({
            "dim": ref.dim,
            "letter": str(ref.letter),
            "interval": [ref.low, ref.high],
            "cover_size": letter_cover_size(ref),
        })
    plan = program.plan
    return {
        "num_instances": program.num_instances,
        "terms": terms,
        "letter_sum_requests": requests,
        "reduction": {
            "group_size": plan.group_size,
            "num_groups": plan.num_groups,
            "total_instances": plan.total_instances,
        },
        "replicas": program.replicas,
        "left_count": program.left_count,
        "right_count": program.right_count,
    }
