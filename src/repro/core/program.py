"""Compiled sketch programs: a shared estimator IR and its vectorised executor.

Every estimator in this library reduces to the same pipeline — per-dimension
xi *letter sums* over canonical dyadic covers, products across dimensions and
across sketch banks, a linear combination of those products per atomic-sketch
instance, then median-of-means boosting.  The eight families only differ in
*which* products they combine.  This module lifts that shared structure into
a small declarative IR:

* :class:`CounterRef` — the per-instance counter cells of one word in one
  :class:`~repro.core.atomic.SketchBank` (the *data side*),
* :class:`LetterSumRef` — per-instance xi sums over one dimension's dyadic
  covers of a column of query intervals, one value per counter cell of the
  dimension (the *query side*),
* :class:`ProgramTerm` — one coefficient times the product of counter and
  letter-sum factors,
* :class:`SketchProgram` — an ordered tuple of terms plus the reduction spec
  (a :class:`~repro.core.boosting.BoostingPlan`, and optionally a control
  column whose expectation is known exactly) and the input cardinalities
  carried into the :class:`~repro.core.result.EstimateResult`.

An estimate is a linear projection of a counter tensor, so a batch of
queries against one estimator is one projection: a family *lowers* a whole
request into **one program per name per batch** (see
:meth:`repro.core.estimator.SketchEstimator.lower`).  A range batch's
letter-sum factors carry one column of intervals per query; a join's
query-less program is evaluated once and carries its result count in
``replicas``.  :class:`ProgramExecutor` runs each program directly:

1. the letter sums of one xi family, dyadic shape, layout and letter are
   de-duplicated with one ``np.unique`` and resolved by one
   :meth:`~repro.core.atomic.SketchBank.level_sums` call (an empty interval
   sums to zero),
2. every term contracts its counter cells with those ``(instances, columns,
   levels)`` sums in one matrix kernel,
3. a program with a control evaluates its control column once and
   regresses its error out of every other column's instances
   (:func:`~repro.core.boosting.control_adjusted`); the ``(columns,
   instances)`` values are then boosted by one
   :func:`~repro.core.boosting.median_of_means_batch` reduction and expand
   to one result per column (the control column gives none).

The executor keeps nothing between runs: a cross-batch cache of resolved
letter sums measured inside the run-to-run spread of the hot end-to-end
workload, so none is kept.

Over one-cell banks execution is **bit-identical** to the historical
scalar paths: the same accumulation order, the same elementwise kernels,
the same reductions.  A level-split bank's term contracts its counter cells
with its letter sums' levels; that is exact — and so independent of how a
batch is formed — while the counters are integers (integer update
weights), as every factor and product then stays below 2^53.  The executor
is a pure execution-strategy layer: how a batch is formed never changes a
number.  What a program's own reduction asks for — the control adjustment
and clipping of a level-split range program — is numerics, and it runs
row by row, so it too gives every query the same answer in any batch.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from repro.core.atomic import Letter, SketchBank, Word, letter_covers
from repro.core.boosting import BoostingPlan, control_adjusted, median_of_means_batch
from repro.core.result import EstimateResult
from repro.errors import SketchConfigError

__all__ = [
    "CounterRef",
    "LetterSumRef",
    "ProgramTerm",
    "SketchProgram",
    "ProgramExecutor",
    "ExecutorStats",
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


@dataclass(frozen=True, eq=False)
class LetterSumRef:
    """Per-instance xi letter sums over one dimension's coordinate intervals.

    Inside a program ``low`` / ``high`` are ``(Q,)`` int64 columns, one
    interval per query, and the factor resolves to ``bank.level_sums(dim,
    letter, low, high)`` — the query-side kernel of the paper's estimators,
    ``(instances, Q, levels)`` integers (one level on a one-cell bank) —
    with an empty interval (``low > high``) summing to zero.
    :attr:`SketchProgram.letter_sum_refs` yields one scalar ref per query.
    The value depends only on the bank's xi families, dyadic domain and
    layout, never on its counters.  Refs compare by identity: terms that
    read the same sums share one ref.
    """

    bank: SketchBank
    dim: int
    letter: Letter
    low: np.ndarray | int
    high: np.ndarray | int


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
    """A compiled estimate batch: terms, reduction spec and result metadata.

    A program answers :attr:`columns` queries, one per letter-sum column
    (one for a program without letter sums).  ``replicas`` expresses the
    query-less batch contract (N requests against a join estimator share
    one set of per-instance values): the executor evaluates the program
    once and returns ``replicas`` results, each owning its own arrays.

    ``control``, when set, is the exact expectation of the *last*
    letter-sum column, which answers no query: the executor regresses that
    column's per-instance error out of every query's instances before the
    reduction and clips each estimate to ``[0, control]`` (a count of
    objects among ``control``).
    """

    terms: tuple[ProgramTerm, ...]
    num_instances: int
    plan: BoostingPlan
    left_count: int
    right_count: int = 1
    replicas: int = 1
    control: float | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise SketchConfigError("a sketch program needs at least one term")
        if self.replicas < 1:
            raise SketchConfigError("a sketch program needs at least one replica")
        widths = {len(ref.low) for term in self.terms for ref in term.letter_sums}
        if len(widths) > 1 or (widths and self.replicas > 1):
            raise SketchConfigError(
                "a program's letter sums share one column count, and only a "
                "program without them carries replicas")

    @property
    def width(self) -> int:
        """How many letter-sum columns the program evaluates: one per
        query, plus the control column."""
        for term in self.terms:
            for ref in term.letter_sums:
                return len(ref.low)
        return 1

    @property
    def columns(self) -> int:
        """How many queries the program answers (before ``replicas``)."""
        return self.width - (self.control is not None)

    @property
    def letter_sum_refs(self) -> list[LetterSumRef]:
        """Every letter-sum request of the program: per query, in term
        order, one ref with scalar ``low`` / ``high`` (the control column
        asks for none)."""
        return [ref for _, ref in _scalar_refs(self, range(self.columns))]


def _scalar_refs(program: SketchProgram, queries: range
                 ) -> Iterator[tuple[int, LetterSumRef]]:
    """``(column, ref)`` for every column of ``queries``, term and
    letter-sum factor."""
    columns = {}
    for term in program.terms:
        for ref in term.letter_sums:
            if ref not in columns:
                columns[ref] = (ref.low.tolist(), ref.high.tolist())
    for query in queries:
        for term in program.terms:
            for ref in term.letter_sums:
                lows, highs = columns[ref]
                yield query, LetterSumRef(ref.bank, ref.dim, ref.letter,
                                          lows[query], highs[query])


# -- the executor -------------------------------------------------------------------


def _family_key(ref: LetterSumRef) -> tuple:
    """What makes two letter sums one kernel call: xi family, dyadic shape,
    layout and letter — never the bank that carries them, so two banks over
    one xi family (a view and its delta-refreshed successor) share it."""
    dyadic = ref.bank.domain.dyadic(ref.dim)
    return (ref.bank.xi_banks[ref.dim], dyadic.size, dyadic.max_level,
            ref.bank.levels[ref.dim], ref.letter)


@dataclass
class ExecutorStats:
    """Lifetime counters of one executor (all mutated under its lock)."""

    runs: int = 0
    programs: int = 0
    results: int = 0
    kernel_calls: int = 0
    letter_sums_requested: int = 0
    letter_sums_computed: int = 0

    def copy(self) -> "ExecutorStats":
        return replace(self)

    def as_dict(self) -> dict:
        """JSON form for the service ``stats`` op."""
        return asdict(self)


class ProgramExecutor:
    """Runs batches of :class:`SketchProgram` objects against shared kernels."""

    #: Columns evaluated per vectorised round; bounds the transient
    #: ``(instances, columns, levels)`` matrices while huge batches stream.
    CHUNK = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats = ExecutorStats()

    @property
    def stats(self) -> ExecutorStats:
        with self._lock:
            return self._stats.copy()

    # -- the entry point ----------------------------------------------------------

    def run(self, programs: Sequence[SketchProgram]) -> list[EstimateResult]:
        """Evaluate and boost a batch of programs.

        Returns one :class:`EstimateResult` per *logical* query: a program
        contributes one result per column, or ``replicas`` consecutive
        results.  Result order follows program order, and no result
        depends on the batch it ran in.
        """
        programs = list(programs)
        results: list[EstimateResult] = []
        for program in programs:
            results.extend(self._run_program(program))
        with self._lock:
            self._stats.runs += 1
            self._stats.programs += len(programs)
            self._stats.results += len(results)
        return results

    # -- execution ----------------------------------------------------------------

    def _run_program(self, program: SketchProgram) -> list[EstimateResult]:
        """One program's results, chunk by chunk.

        The chunks run last to first: the control column, the last one,
        shares the last chunk's kernel calls and is known before any
        chunk's reduction.
        """
        width = program.width
        control = None
        chunks = []
        for start in reversed(range(0, width, self.CHUNK)):
            stop = min(start + self.CHUNK, width)
            # C-contiguous (columns, instances) rows: every reduction runs
            # along a row, bit-identical to the row on its own.
            rows = np.ascontiguousarray(self._values(
                program, self._letter_sums(program, start, stop), stop - start).T)
            if program.control is not None and control is None:
                control, rows = rows[-1], rows[:-1]
            chunks.append(self._reduce(program, rows, control))
        return [result for chunk in reversed(chunks) for result in chunk]

    @staticmethod
    def _reduce(program: SketchProgram, rows: np.ndarray,
                control: np.ndarray | None) -> list[EstimateResult]:
        """Results for the ``(columns, instances)`` rows of one chunk."""
        if control is not None:
            rows = control_adjusted(rows, control, program.control)
        boosted, group_means = median_of_means_batch(rows, program.plan)
        if control is not None:
            boosted = np.minimum(np.maximum(boosted, 0.0), program.control)
        # Each result owns its rows: in-place post-processing of one cannot
        # leak into another, and a result kept alive pins no chunk matrix.
        results = [
            EstimateResult(estimate=estimate, instance_values=values.copy(),
                           group_means=means.copy(), left_count=program.left_count,
                           right_count=program.right_count)
            for estimate, values, means in zip(boosted.tolist(), rows, group_means)
        ]
        if program.replicas > 1:
            # Copies computed once, each owning its arrays.
            first = results[0]
            results += [replace(first, instance_values=first.instance_values.copy(),
                                group_means=first.group_means.copy())
                        for _ in range(program.replicas - 1)]
        return results

    @staticmethod
    def _values(program: SketchProgram, sums: dict[LetterSumRef, np.ndarray],
                width: int) -> np.ndarray:
        """``(num_instances, width)`` values of one program's columns.

        Over one-cell banks the accumulation mirrors the historical scalar
        paths exactly: counters multiply first (in ref order), letter sums
        multiply next (in dimension order), the coefficient scales the
        product, and terms accumulate into a zero-initialised matrix in
        term order.  Over a level-split bank a term's cells are contracted
        with its letter sums' levels instead, one dimension at a time.
        """
        instances = program.num_instances
        values = np.zeros((instances, width), dtype=np.float64)
        for term in program.terms:
            cells: np.ndarray | None = None
            for ref in term.counters:
                block = ref.bank.word_cells(ref.word)
                cells = block if cells is None else cells * block
            slots = [sums[ref] for ref in term.letter_sums]
            if any(slot.shape[2] > 1 for slot in slots):
                # A level-split bank is 1-D or 2-D: the first slot's levels
                # contract with the cells in one batched matmul, (instances,
                # columns, levels of the second), and the second's levels
                # elementwise.
                term_values = np.matmul(
                    slots[0], cells.reshape(instances, slots[0].shape[2], -1))
                if len(slots) == 2:
                    term_values = np.einsum("ipl,ipl->ip", term_values, slots[1])
                else:
                    term_values = term_values[:, :, 0]
                values += term.coefficient * term_values
                continue
            sum_product: np.ndarray | None = None
            for slot in slots:
                sum_product = (slot[:, :, 0] if sum_product is None
                               else sum_product * slot[:, :, 0])
            if sum_product is None:
                values += term.coefficient * cells
            elif cells is None:
                values += term.coefficient * sum_product
            else:
                values += term.coefficient * (cells * sum_product)
        return values

    def _letter_sums(self, program: SketchProgram, start: int,
                     stop: int) -> dict[LetterSumRef, np.ndarray]:
        """Every letter-sum factor of a program over columns ``start:stop``,
        as ``(instances, columns, levels)`` float64 (exact integers).

        Factors of one xi family, dyadic shape, layout and letter form one
        group: their intervals are de-duplicated with one ``np.unique`` and
        resolved by one ``level_sums`` call (column ``j`` of a batched
        kernel is bit-identical to a single-interval call).  An empty
        interval reads zero.
        """
        groups: dict[tuple, list[LetterSumRef]] = {}
        requested = 0
        for term in program.terms:
            requested += len(term.letter_sums)
            for ref in term.letter_sums:
                members = groups.setdefault(_family_key(ref), [])
                if ref not in members:
                    members.append(ref)
        width = stop - start
        resolved: dict[LetterSumRef, np.ndarray] = {}
        computed = 0
        for members in groups.values():
            rep = members[0]
            size = rep.bank.domain.dyadic(rep.dim).size
            lows = np.concatenate([ref.low[start:stop] for ref in members])
            highs = np.concatenate([ref.high[start:stop] for ref in members])
            live = lows <= highs
            # (low, high) packed into one int64 key: exact while size < 2^31.
            unique, inverse = np.unique(lows[live] * size + highs[live],
                                        return_inverse=True)
            sums = rep.bank.level_sums(rep.dim, rep.letter, unique // size,
                                       unique % size)
            computed += len(unique)
            if not live.all():
                # An empty interval reads a zero column past the sums.
                zero = np.zeros((sums.shape[0], 1, sums.shape[2]), dtype=sums.dtype)
                sums = np.concatenate((sums, zero), axis=1)
                padded = np.full(len(lows), len(unique))
                padded[live] = inverse
                inverse = padded
            gathered = np.take(sums, inverse, axis=1).astype(np.float64)
            for index, ref in enumerate(members):
                resolved[ref] = gathered[:, index * width:(index + 1) * width]
        with self._lock:
            self._stats.kernel_calls += len(groups)
            self._stats.letter_sums_requested += requested * width
            self._stats.letter_sums_computed += computed
        return resolved


_DEFAULT_EXECUTOR: ProgramExecutor | None = None
_DEFAULT_EXECUTOR_LOCK = threading.Lock()


def default_executor() -> ProgramExecutor:
    """The process-wide executor the estimator families run on.

    A serving layer owns its own executor, so its counters cover its own
    work (see :class:`~repro.service.service.EstimationService`).
    """
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        with _DEFAULT_EXECUTOR_LOCK:
            if _DEFAULT_EXECUTOR is None:
                _DEFAULT_EXECUTOR = ProgramExecutor()
    return _DEFAULT_EXECUTOR


# -- introspection ------------------------------------------------------------------


def letter_cover_size(ref: LetterSumRef) -> int:
    """How many xi variables the letter sum of a scalar ``ref`` touches.

    This is the size of the letter-specific dyadic cover — the quantity the
    paper's update/query cost analysis counts (O(d log n) per box).
    """
    if ref.low > ref.high:
        return 0    # an empty interval reads nothing (see LetterSumRef)
    _, lengths = letter_covers(ref.bank.domain.dyadic(ref.dim), ref.letter,
                               [ref.low], [ref.high])
    return int(lengths[0])


def _word_text(word: Word) -> str:
    return "".join(str(letter) for letter in word)


def describe_program(program: SketchProgram) -> dict:
    """A JSON-friendly description of one compiled program.

    Used by ``repro-spatial estimate --explain`` to show what an estimate
    *is*: the word products and coefficients, every query's letter-sum
    requests with their intervals and dyadic cover sizes, and the
    reduction plan — with the control column's expectation and requests
    when the program has one.
    """
    terms = []
    for term in program.terms:
        terms.append({
            "coefficient": term.coefficient,
            "counters": [_word_text(ref.word) for ref in term.counters],
            "letter_sums": [{"dim": ref.dim, "letter": str(ref.letter)}
                            for ref in term.letter_sums],
        })
    requests, control = [], []
    seen: set[tuple] = set()
    for column, ref in _scalar_refs(program, range(program.width)):
        key = (column, ref.dim, ref.letter, ref.low, ref.high)
        if key in seen:
            continue
        seen.add(key)
        request = {
            "dim": ref.dim,
            "letter": str(ref.letter),
            "interval": [ref.low, ref.high],
            "cover_size": letter_cover_size(ref),
        }
        if column < program.columns:
            requests.append({"query": column, **request})
        else:
            control.append(request)
    plan = program.plan
    return {
        "num_instances": program.num_instances,
        "columns": program.columns,
        "terms": terms,
        "letter_sum_requests": requests,
        "reduction": {
            "group_size": plan.group_size,
            "num_groups": plan.num_groups,
            "total_instances": plan.total_instances,
            "control": None if program.control is None else {
                "expectation": program.control,
                "letter_sum_requests": control,
            },
        },
        "replicas": program.replicas,
        "left_count": program.left_count,
        "right_count": program.right_count,
    }
