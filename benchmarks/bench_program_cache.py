"""Program-executor benchmark: mixed-estimator dispatch vs per-family batches.

This is the perf-regression gate of the compiled-program layer: a hot mixed
workload — four estimator families interleaved, the same request set
arriving round after round (the shape a serving layer sees from optimizer
probes and dashboard queries) — answered through

* the **per-family path**: each round grouped by estimator and answered by
  one batched engine call per family (intra-batch letter-sum sharing, no
  cross-round reuse — the pre-program-layer serving cost), and
* the **mixed path**: each round answered by a single
  ``EstimationService.estimate_multi`` dispatch on the service's
  :class:`~repro.core.program.ProgramExecutor`, one program per name,

and the mixed path must stay **under an absolute ceiling** over the whole
workload (``MAX_MIXED_SECONDS``, 2x the recorded value).  The gate used to
be relative — mixed >= 2x per-family (3x measured) — but that ratio was
the *per-family* path recomputing its letter sums every round by
evaluating the polynomial.  Since every bank of an xi *family* reads the
family's one sign table, a recomputed letter sum is a row gather
(per-family path 1.24 s -> 0.3-0.5 s) and the ratio (1.0-1.2x, still
reported) no longer says anything about the mixed path.  A ceiling on the
mixed path's own seconds does: a regression there fails CI whatever the
baseline does.  Results are asserted bit-identical between the two paths.

The run writes ``BENCH_program.json`` and its human-readable record
``BENCH_program.txt`` at the repository root; CI consumes the JSON report
and fails the perf-smoke job when the mixed path exceeds its ceiling.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import replace

import numpy as np

from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.core.dyadic import pruned_max_levels
from repro.core.program import ProgramExecutor
from repro.exact import (
    containment_join_count,
    range_query_count,
    rectangle_join_count,
)
from repro.geometry.boxset import BoxSet
from repro.service import (
    EstimationService,
    EstimatorSpec,
    synthetic_boxes,
    synthetic_queries,
)
from repro.service.specs import apply_update, compile_programs

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_program.json"

DOMAIN = Domain.square(65536, dimension=2)
NUM_INSTANCES = 192
DATA_BOXES = 4000
ROUNDS = 6
RANGE_REQUESTS_PER_ROUND = 512
QUERYLESS_REQUESTS_PER_ROUND = 48  # per query-less family, per round
MAX_MIXED_SECONDS = 0.65  # 2x the median of 0.24-0.40 s over ten recorded runs

FAMILY_NAMES = ("ranges", "join", "eps", "contain")

LETTER_SUM_INTERVALS = 2048
LETTER_SUM_ROUNDS = 5
LETTER_SUM_MIN_SPEEDUP = 2.0

#: The coordinate-table gate runs on the serving shape (the end-to-end
#: benchmark's 1024 x 1024 domain, 256 instances), whose tables fit the
#: byte budget; ``DOMAIN`` above (2^16 per side) is the over-budget shape
#: and keeps measuring the cover-walk path.
TABLE_DOMAIN = Domain.square(1024, dimension=2)
TABLE_INSTANCES = 256
TABLE_ROUNDS = 20
TABLE_MIN_SPEEDUP = 3.0
COLD_TABLE_ROUNDS = 8
COLD_TABLE_MAX_MS = 60.0

#: The update gate: one ``SketchBank.insert`` of this many boxes into the
#: serving shape's 2-D bank, against the float update kept below.
UPDATE_BOXES = 2048
UPDATE_ROUNDS = 20
UPDATE_MIN_SPEEDUP = 3.0

#: The cold gate: what a fresh xi family costs, tables built, on the
#: shapes of the end-to-end benchmark's routed set-up.  Ceilings are 2x
#: the values recorded when the sign table moved to the family.
COLD_BATCH_BOXES = 512
COLD_BATCH_ROUNDS = 7
COLD_BATCH_MAX_MS = 315.0
COLD_REDUCE_ROUNDS = 200
COLD_REDUCE_MAX_MS = 1.35

#: The counted gate: interpreter calls (cProfile's total) per range
#: estimate of one cold 512-query batch on the serving shape.  A batch is
#: one program per name, so the count must not grow with the queries.
CALLS_QUERIES = 512
CALLS_DATA_BOXES = 4000
MAX_CALLS_PER_QUERY = 30


def _update_report(updates: dict) -> None:
    """Merge new sections into ``BENCH_program.json`` without clobbering.

    The mixed-dispatch gate and the letter-sum gate share the report file;
    whichever runs first must not erase the other's section.
    """
    report: dict = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    for section, values in updates.items():
        if isinstance(values, dict):
            # Two tests write into "letter_sum": merge, never replace.
            values = {**report.get(section, {}), **values}
        report[section] = values
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")


def _make_service() -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=12)
    service.register("eps", family="epsilon", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=13, epsilon=4)
    service.register("contain", family="containment", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=14)
    boxes = synthetic_boxes(DOMAIN, DATA_BOXES, seed=1)
    points = synthetic_boxes(DOMAIN, DATA_BOXES // 4, seed=2, degenerate=True)
    service.ingest("ranges", boxes, side="data")
    service.ingest("join", boxes, side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, DATA_BOXES, seed=3),
                   side="right")
    service.ingest("eps", points, side="left")
    service.ingest("eps", synthetic_boxes(DOMAIN, DATA_BOXES // 4, seed=4,
                                          degenerate=True), side="right")
    service.ingest("contain", boxes, side="outer")
    service.ingest("contain", synthetic_boxes(DOMAIN, DATA_BOXES, seed=5),
                   side="inner")
    service.flush()
    # Warm the merged-view LRU so both paths measure estimation, not the
    # first view build.
    for name in FAMILY_NAMES:
        service.merged_view(name)
    return service


def _round_requests(queries) -> list[tuple[str, object]]:
    """One round of the mixed workload: 4 families interleaved."""
    requests: list[tuple[str, object]] = []
    queryless = 0
    for index in range(len(queries)):
        requests.append(("ranges", queries[index:index + 1]))
        if index % 10 == 0 and queryless < 3 * QUERYLESS_REQUESTS_PER_ROUND:
            for name in ("join", "eps", "contain"):
                requests.append((name, None))
            queryless += 3
    return requests


def _per_family_round(service, requests, executor) -> list:
    """The baseline: one batched engine call per family, no cross-round reuse."""
    grouped: dict[str, list] = {}
    order: dict[str, list[int]] = {}
    for index, (name, query) in enumerate(requests):
        grouped.setdefault(name, []).append(query)
        order.setdefault(name, []).append(index)
    results: list = [None] * len(requests)
    for name, queries in grouped.items():
        batch = executor.run(compile_programs(
            service.spec(name), service.merged_view(name), queries))
        for position, index in enumerate(order[name]):
            results[index] = batch[position]
    return results


def test_mixed_dispatch_vs_per_family_path(benchmark, record_gate):
    """The acceptance gate: mixed-workload dispatch under its ceiling, bit-identical."""
    service = _make_service()
    queries = synthetic_queries(DOMAIN, RANGE_REQUESTS_PER_ROUND, seed=7)
    requests = _round_requests(queries)
    num_families = len({name for name, _ in requests})
    assert num_families == 4

    baseline_executor = ProgramExecutor()

    def run_per_family() -> float:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _per_family_round(service, requests, baseline_executor)
        return time.perf_counter() - start

    def run_mixed() -> float:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            service.estimate_multi(requests)
        return time.perf_counter() - start

    per_family_seconds = run_per_family()
    mixed_seconds = benchmark.pedantic(run_mixed, rounds=1, iterations=1)

    # Bit-identity between the two paths (and with the scalar estimates the
    # property suite pins them to).
    baseline = _per_family_round(service, requests,
                                 ProgramExecutor())
    mixed = service.estimate_multi(requests)
    assert [r.estimate for r in mixed] == [r.estimate for r in baseline]

    speedup = per_family_seconds / mixed_seconds
    executor_stats = service.program_executor.stats
    total_requests = ROUNDS * len(requests)

    report = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "mixed_vs_per_family": {
            "families": num_families,
            "rounds": ROUNDS,
            "requests_per_round": len(requests),
            "total_requests": total_requests,
            "per_family_seconds": per_family_seconds,
            "mixed_seconds": mixed_seconds,
            "per_family_qps": total_requests / per_family_seconds,
            "mixed_qps": total_requests / mixed_seconds,
            "speedup": speedup,
            "max_mixed_seconds": MAX_MIXED_SECONDS,
        },
        "executor": {
            "letter_sums_requested": executor_stats.letter_sums_requested,
            "letter_sums_computed": executor_stats.letter_sums_computed,
            "kernel_calls": executor_stats.kernel_calls,
        },
    }
    _update_report(report)

    lines = [
        f"program executor: {ROUNDS} rounds x {len(requests)} mixed requests "
        f"({num_families} families, {NUM_INSTANCES} instances)",
        f"per-family path: {per_family_seconds:8.3f} s "
        f"({total_requests / per_family_seconds:10.0f} q/s)",
        f"mixed dispatch : {mixed_seconds:8.3f} s "
        f"({total_requests / mixed_seconds:10.0f} q/s; "
        f"gate: <= {MAX_MIXED_SECONDS} s)",
        f"speedup        : {speedup:8.1f}x (informational)",
        f"letter sums    : {executor_stats.letter_sums_computed} computed / "
        f"{executor_stats.letter_sums_requested} requested "
        f"({executor_stats.kernel_calls} kernel calls)",
    ]
    record_gate("bench_program_cache", lines)
    assert mixed_seconds <= MAX_MIXED_SECONDS


def test_a_cold_range_estimate_costs_few_interpreter_calls(record_gate):
    """The counted gate: ``estimate_batch`` of 512 rectangles no executor
    has seen, on the end-to-end benchmark's range name (1024 x 1024 from
    plain sizes, 256 instances, 4 000 boxes), profiled with cProfile — its
    total calls over the batch, per query.  Deterministic across guests."""
    import cProfile
    import pstats

    service = EstimationService(flush_threshold=None)
    service.register("rq", EstimatorSpec.create(
        "range", TABLE_DOMAIN.requested_sizes, TABLE_INSTANCES, seed=11))
    service.ingest("rq", synthetic_boxes(TABLE_DOMAIN, CALLS_DATA_BOXES, seed=1),
                   side="data")
    service.estimate_batch("rq", synthetic_queries(TABLE_DOMAIN, 8, seed=2))
    queries = synthetic_queries(TABLE_DOMAIN, CALLS_QUERIES, seed=3)
    profile = cProfile.Profile()
    profile.enable()
    results = service.estimate_batch("rq", queries)
    profile.disable()
    assert len(results) == CALLS_QUERIES
    calls_per_query = pstats.Stats(profile).total_calls / CALLS_QUERIES

    _update_report({"cold_range": {
        "queries": CALLS_QUERIES,
        "calls_per_query": calls_per_query,
        "max_calls_per_query": MAX_CALLS_PER_QUERY,
    }})
    text = (f"cold range estimate: {calls_per_query:.2f} interpreter calls per "
            f"query over one {CALLS_QUERIES}-query batch on the serving shape "
            f"(gate: <= {MAX_CALLS_PER_QUERY})")
    record_gate("bench_program_calls", [text])
    assert calls_per_query <= MAX_CALLS_PER_QUERY


def _reference_interval_sums(bank: SketchBank, dim: int, lows: np.ndarray,
                             highs: np.ndarray) -> np.ndarray:
    """The pre-fusion letter-sum path: per-box scalar covers, fresh signs.

    This reimplements the shape of the old ``_letter_sums`` inner loop —
    one Python-level ``cover()`` walk per box, a freshly allocated sign
    matrix, then one ``reduceat`` — as the baseline the fused kernel must
    beat while staying bit-identical.
    """
    dyadic = bank.domain.dyadic(dim)
    xi = bank.xi_banks[dim]
    ids_list: list[int] = []
    lengths = np.empty(len(lows), dtype=np.int64)
    for index, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist())):
        cover = dyadic.cover(lo, hi)
        ids_list.extend(cover)
        lengths[index] = len(cover)
    ids = np.asarray(ids_list, dtype=np.int64)
    starts = np.zeros(len(lows), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    signs = xi.signs(ids)
    return np.add.reduceat(signs, starts, axis=1, dtype=np.float64)


def test_fused_letter_sums_at_least_2x_reference(benchmark, record_gate):
    """The kernel gate: fused letter sums >= 2x the per-box scalar path."""
    bank = SketchBank(DOMAIN, all_words([Letter.INTERVAL], DOMAIN.dimension),
                      NUM_INSTANCES, seed=17)
    rng = np.random.default_rng(3)
    size = DOMAIN.dyadic(0).size
    lows = rng.integers(0, size - 1, size=LETTER_SUM_INTERVALS)
    highs = lows + rng.integers(1, size // 4, size=LETTER_SUM_INTERVALS)
    highs = np.minimum(highs, size - 1)

    # Warm both paths (sign-table builds, workspace growth) so the timed
    # loops compare steady-state kernels.
    fused_warm = bank.letter_sums(0, Letter.INTERVAL, lows, highs)
    reference_warm = _reference_interval_sums(bank, 0, lows, highs)
    assert np.array_equal(fused_warm, reference_warm)

    def run_reference() -> float:
        start = time.perf_counter()
        for _ in range(LETTER_SUM_ROUNDS):
            _reference_interval_sums(bank, 0, lows, highs)
        return time.perf_counter() - start

    def run_fused() -> float:
        start = time.perf_counter()
        for _ in range(LETTER_SUM_ROUNDS):
            bank.letter_sums(0, Letter.INTERVAL, lows, highs)
        return time.perf_counter() - start

    reference_seconds = run_reference()
    fused_seconds = benchmark.pedantic(run_fused, rounds=1, iterations=1)
    speedup = reference_seconds / fused_seconds

    _update_report({
        "letter_sum": {
            "intervals": LETTER_SUM_INTERVALS,
            "rounds": LETTER_SUM_ROUNDS,
            "instances": NUM_INSTANCES,
            "reference_seconds": reference_seconds,
            "fused_seconds": fused_seconds,
            "speedup": speedup,
            "min_speedup": LETTER_SUM_MIN_SPEEDUP,
        },
    })

    lines = [
        f"letter sums: {LETTER_SUM_ROUNDS} rounds x {LETTER_SUM_INTERVALS} "
        f"intervals ({NUM_INSTANCES} instances)",
        f"per-box scalar path: {reference_seconds:8.3f} s",
        f"fused kernel       : {fused_seconds:8.3f} s",
        f"speedup            : {speedup:8.1f}x "
        f"(gate: >= {LETTER_SUM_MIN_SPEEDUP}x)",
    ]
    record_gate("bench_letter_sums", lines)
    assert speedup >= LETTER_SUM_MIN_SPEEDUP


def test_coordinate_tables_at_least_3x_cover_walk(benchmark, monkeypatch, record_gate):
    """The table gate: coordinate-table lookups >= 3x the cover walk.

    Both sides have a warm sign table; the baseline is what a bank does
    when its derived tables are over the byte budget — walk the covers,
    gather ``(instances x cover ids)`` signs, reduce — i.e. the warm path
    before coordinate tables existed.  Also records what a cold xi family
    pays before its first table-served letter sum (sign table + point
    table + interval tables), against a ceiling.
    """
    from repro.core.hashing import FourWiseFamilyBank

    rng = np.random.default_rng(5)
    size = TABLE_DOMAIN.dyadic(0).size
    lows = rng.integers(0, size - 1, size=LETTER_SUM_INTERVALS)
    highs = np.minimum(lows + rng.integers(1, size // 4, size=LETTER_SUM_INTERVALS),
                       size - 1)
    letters = (Letter.INTERVAL, Letter.ENDPOINTS)

    def make_bank(seed: int) -> SketchBank:
        return SketchBank(TABLE_DOMAIN, all_words(letters, TABLE_DOMAIN.dimension),
                          TABLE_INSTANCES, seed=seed)

    def rounds(bank: SketchBank, letter: Letter) -> float:
        start = time.perf_counter()
        for _ in range(TABLE_ROUNDS):
            bank.letter_sums(0, letter, lows, highs)
        return time.perf_counter() - start

    bank = make_bank(17)
    tabled = {letter: bank.letter_sums(0, letter, lows, highs) for letter in letters}
    with monkeypatch.context() as patch:
        patch.setattr(FourWiseFamilyBank, "_DERIVED_BYTE_LIMIT", 0)
        walker = make_bank(17)
        for letter in letters:
            assert np.array_equal(
                walker.letter_sums(0, letter, lows, highs), tabled[letter])
        walk_seconds = {letter: rounds(walker, letter) for letter in letters}

    def run_tables() -> dict:
        return {letter: rounds(bank, letter) for letter in letters}

    table_seconds = benchmark.pedantic(run_tables, rounds=1, iterations=1)
    speedups = {letter: walk_seconds[letter] / table_seconds[letter]
                for letter in letters}
    table_speedup = min(speedups.values())

    # A cold family's first calls build its tables and answer; the answer's
    # own (steady-state) share is subtracted.
    steady_ms = sum(table_seconds.values()) / TABLE_ROUNDS * 1e3
    cold_ms = []
    for index in range(COLD_TABLE_ROUNDS):
        cold = make_bank(1000 + index)       # a family nobody has built
        start = time.perf_counter()
        for letter in letters:
            cold.letter_sums(0, letter, lows, highs)
        cold_ms.append((time.perf_counter() - start) * 1e3 - steady_ms)
    cold_table_ms = float(np.median(cold_ms))

    _update_report({"letter_sum": {
        "table_intervals": LETTER_SUM_INTERVALS,
        "table_points": LETTER_SUM_INTERVALS,
        "table_instances": TABLE_INSTANCES,
        "table_interval_speedup": speedups[Letter.INTERVAL],
        "table_point_speedup": speedups[Letter.ENDPOINTS],
        "table_speedup": table_speedup,
        "min_table_speedup": TABLE_MIN_SPEEDUP,
        "cold_table_ms": cold_table_ms,
        "max_cold_table_ms": COLD_TABLE_MAX_MS,
    }})

    per_call = 1e3 / TABLE_ROUNDS
    lines = [
        f"coordinate tables: {TABLE_ROUNDS} rounds x {LETTER_SUM_INTERVALS} "
        f"boxes, 1024-wide dimension, {TABLE_INSTANCES} instances",
    ]
    for letter, label in ((Letter.INTERVAL, "interval covers"),
                          (Letter.ENDPOINTS, "endpoint covers")):
        lines.append(
            f"{label}: walk {walk_seconds[letter] * per_call:7.2f} ms/call, "
            f"tables {table_seconds[letter] * per_call:7.2f} ms/call, "
            f"{speedups[letter]:6.1f}x")
    lines += [
        f"table speedup  : {table_speedup:8.1f}x (gate: >= {TABLE_MIN_SPEEDUP}x)",
        f"cold xi family : {cold_table_ms:8.1f} ms to its first table-served "
        f"sums (gate: <= {COLD_TABLE_MAX_MS} ms)",
    ]
    record_gate("bench_cover_tables", lines)
    assert table_speedup >= TABLE_MIN_SPEEDUP
    assert cold_table_ms <= COLD_TABLE_MAX_MS


def _reference_float_update(bank: SketchBank, boxes: BoxSet,
                            counters: np.ndarray) -> None:
    """The update before integer rows: float64 ``(instances, boxes)`` matrices.

    One C-contiguous float64 matrix per (dimension, letter), multiplied per
    word and summed along the boxes — the arithmetic ``SketchBank`` keeps
    only as its fallback past float64's exact integers — as the baseline
    the row kernel must beat while leaving identical counters.
    """
    sums: dict[tuple[int, Letter], np.ndarray] = {}
    for word in bank.words:
        for dim, letter in enumerate(word):
            if (dim, letter) not in sums:
                sums[dim, letter] = np.ascontiguousarray(bank.letter_sums(
                    dim, letter, boxes.lows[:, dim], boxes.highs[:, dim]))
    for index, word in enumerate(bank.words):
        term = sums[0, word[0]].copy()
        for dim in range(1, bank.dimension):
            term *= sums[dim, word[dim]]
        counters[:, index] += term.sum(axis=1)


def test_row_kernel_at_least_3x_float_update(benchmark, record_gate):
    """The update gate: integer row kernel >= 3x the float update."""

    words = all_words((Letter.INTERVAL, Letter.ENDPOINTS), TABLE_DOMAIN.dimension)
    bank = SketchBank(TABLE_DOMAIN, words, TABLE_INSTANCES, seed=17)
    boxes = synthetic_boxes(TABLE_DOMAIN, UPDATE_BOXES, seed=9)
    reference = np.zeros_like(bank.counter_tensor)

    # Warm both sides (sign and cover tables) and pin bit-identity.
    bank.insert(boxes)
    _reference_float_update(bank, boxes, reference)
    assert np.array_equal(bank.counter_tensor, reference)

    def run_reference() -> float:
        start = time.perf_counter()
        for _ in range(UPDATE_ROUNDS):
            _reference_float_update(bank, boxes, reference)
        return time.perf_counter() - start

    def run_rows() -> float:
        start = time.perf_counter()
        for _ in range(UPDATE_ROUNDS):
            bank.insert(boxes)
        return time.perf_counter() - start

    reference_seconds = run_reference()
    row_seconds = benchmark.pedantic(run_rows, rounds=1, iterations=1)
    assert np.array_equal(bank.counter_tensor, reference)
    speedup = reference_seconds / row_seconds

    _update_report({"update": {
        "boxes": UPDATE_BOXES,
        "instances": TABLE_INSTANCES,
        "dimension": TABLE_DOMAIN.dimension,
        "words": len(words),
        "rounds": UPDATE_ROUNDS,
        "float_ms_per_insert": reference_seconds / UPDATE_ROUNDS * 1e3,
        "row_ms_per_insert": row_seconds / UPDATE_ROUNDS * 1e3,
        "row_kernel_speedup": speedup,
        "min_row_kernel_speedup": UPDATE_MIN_SPEEDUP,
    }})

    lines = [
        f"sketch update: {UPDATE_ROUNDS} rounds x {UPDATE_BOXES} boxes, "
        f"{len(words)} words over a 1024 x 1024 domain, {TABLE_INSTANCES} "
        "instances",
        f"float (instances, boxes) update: "
        f"{reference_seconds / UPDATE_ROUNDS * 1e3:7.2f} ms/insert",
        f"integer row kernel             : "
        f"{row_seconds / UPDATE_ROUNDS * 1e3:7.2f} ms/insert",
        f"speedup                        : {speedup:7.1f}x "
        f"(gate: >= {UPDATE_MIN_SPEEDUP}x)",
    ]
    record_gate("bench_update_kernel", lines)
    assert speedup >= UPDATE_MIN_SPEEDUP


def test_cold_families_stay_off_the_polynomial(benchmark, record_gate):
    """The cold gate: small first batches and router reduces, in ms.

    (a) A routed worker's first flush in miniature: a fresh 4-shard
    service, the end-to-end benchmark's three estimators, one small batch
    per side, so what this costs is table builds plus the update kernels.
    A service pre-pays a name's tables on its first buffered batch, so
    the flush itself must build none (``first_flush.sign_table_builds``,
    counted, gate ``max: 0``).
    (b) A router's steady-state reduce: ``reduce_partials`` of two worker
    states for a ``range`` spec against a resident template, with no
    other bank of the family alive in the process.
    """
    from repro.cluster.partial import reduce_partials
    from repro.core.hashing import sign_table_stats
    from repro.service import EstimatorSpec
    from repro.service.specs import apply_update

    sides = (("rq", "data"), ("rj", "left"), ("rj", "right"),
             ("cj", "outer"), ("cj", "inner"))
    batches = [synthetic_boxes(TABLE_DOMAIN, COLD_BATCH_BOXES, seed=index)
               for index in range(len(sides))]

    def small_batch(seed: int) -> float:
        service = EstimationService(num_shards=4, flush_threshold=None)
        for offset, (name, family) in enumerate(
                (("rq", "range"), ("rj", "rectangle"), ("cj", "containment"))):
            service.register(name, family=family, domain=TABLE_DOMAIN,
                             num_instances=TABLE_INSTANCES, seed=seed + offset)
        start = time.perf_counter()
        for (name, side), boxes in zip(sides, batches):
            service.ingest(name, boxes, side=side)
        buffered = sign_table_stats()["sign_table_builds"]
        service.flush()
        flush_builds.append(
            sign_table_stats()["sign_table_builds"] - buffered)
        return (time.perf_counter() - start) * 1e3

    flush_builds: list[int] = []
    before = sign_table_stats()
    batch_ms = [small_batch(5000 + 10 * index)
                for index in range(COLD_BATCH_ROUNDS)]
    after = sign_table_stats()
    small_batch_ms = float(np.median(batch_ms))
    first_flush_builds = max(flush_builds)

    spec = EstimatorSpec.create("range", TABLE_DOMAIN.requested_sizes,
                                TABLE_INSTANCES, seed=6000)
    states = []
    for seed in (1, 2):
        worker = spec.build()
        apply_update(spec, worker, "data", "insert",
                     synthetic_boxes(TABLE_DOMAIN, 2000, seed=seed))
        states.append(worker.state_dict())
    del worker
    queries = synthetic_queries(TABLE_DOMAIN, COLD_REDUCE_ROUNDS, seed=8)
    template = spec.build()

    def run_reduces() -> list[float]:
        reduce_ms = []
        for index in range(COLD_REDUCE_ROUNDS):
            start = time.perf_counter()
            reduce_partials(spec, states, queries[index], template=template)
            reduce_ms.append((time.perf_counter() - start) * 1e3)
        return reduce_ms

    router_reduce_ms = float(np.median(
        benchmark.pedantic(run_reduces, rounds=1, iterations=1)))

    _update_report({"cold": {
        "batch_boxes_per_side": COLD_BATCH_BOXES,
        "instances": TABLE_INSTANCES,
        "small_batch_ms": small_batch_ms,
        "max_small_batch_ms": COLD_BATCH_MAX_MS,
        "small_batch_table_builds": (
            after["sign_table_builds"] - before["sign_table_builds"]
        ) // COLD_BATCH_ROUNDS,
        "small_batch_direct_hash_ids": (
            after["direct_hash_ids"] - before["direct_hash_ids"]
        ) // COLD_BATCH_ROUNDS,
        "reduces": COLD_REDUCE_ROUNDS,
        "router_reduce_ms": router_reduce_ms,
        "max_router_reduce_ms": COLD_REDUCE_MAX_MS,
    }, "first_flush": {
        "sign_table_builds": first_flush_builds,
    }})

    lines = [
        f"cold xi families: {TABLE_INSTANCES} instances over a 1024 x 1024 "
        "domain",
        f"small first batch : {small_batch_ms:8.1f} ms for {COLD_BATCH_BOXES} "
        f"boxes x {len(sides)} sides into a fresh 4-shard service "
        f"(gate: <= {COLD_BATCH_MAX_MS} ms)",
        f"its first flush   : {first_flush_builds:8d} sign tables built "
        "after one buffered batch per name (gate: 0)",
        f"router reduce     : {router_reduce_ms:8.2f} ms per range estimate "
        f"over 2 worker states, resident template "
        f"(gate: <= {COLD_REDUCE_MAX_MS} ms)",
    ]
    record_gate("bench_cold_families", lines)
    assert small_batch_ms <= COLD_BATCH_MAX_MS
    assert router_reduce_ms <= COLD_REDUCE_MAX_MS
    assert first_flush_builds == 0


_EXACT_JOINS = {"rectangle": rectangle_join_count,
                "containment": containment_join_count}


def probe_shape(seed: int, *, size: int = 1024, boxes: int = 4000
                ) -> tuple[BoxSet, list[BoxSet]]:
    """ROADMAP probe (b), the end-to-end benchmark's shape: its 64 probe
    rectangles over ``size`` x ``size`` (every extent at least 1/8 of the
    domain) and two sides of ``boxes`` ``synthetic_boxes`` drawn by
    ``seed``."""
    rng = np.random.default_rng([20040613, 7])
    extents = rng.integers(size // 8, size // 2, size=(64, 2))
    lows = rng.integers(0, size - size // 8, size=(64, 2))
    probes = BoxSet(lows, np.minimum(lows + extents, size - 1))
    full = Domain((size, size))
    return probes, [synthetic_boxes(full, boxes, seed=seed + index)
                    for index in (0, 1)]


def probe_answers(spec: EstimatorSpec, sides: list[BoxSet],
                  probes: BoxSet) -> list:
    """``spec``'s results after ingesting ``sides``: one per probe for
    ``range``, the one join estimate otherwise."""
    estimator = spec.build()
    for side, data in zip(spec.info.sides, sides):
        apply_update(spec, estimator, side, "insert", data)
    return estimator.estimate_batch(probes if spec.info.queryable else 1)


def level_cap_probe(seed: int, families=("range", "rectangle", "containment"),
                    *, size: int = 1024, instances: int = 256,
                    boxes: int = 4000) -> dict[str, dict[str, float]]:
    """Relative error against :mod:`repro.exact` on :func:`probe_shape` of
    a spec built from plain sizes (``"derived"``: the default level caps),
    of one capped by the worst-case cover rule (``"pruned"``,
    :func:`~repro.core.dyadic.pruned_max_levels` — the joins' default, so
    the same spec there) and of one built from the full ``Domain``
    (``"uncapped"``).  For ``range`` the error is the median over the 64
    probes, for the joins that of the one estimate.  ``seed`` draws the
    data and the sketch; the same data feeds every spec.
    ``tests/test_level_caps.py`` runs it too (tier-1: the joins as well as
    the range family gated below).  Every column keeps one counter cell per
    word, the layout the caps were chosen for: on level-split counters no
    cover node above the probes' extents pairs with anything, so the caps
    barely move the error there."""
    probes, sides = probe_shape(seed, size=size, boxes=boxes)
    sizes = (size, size)
    columns = {"derived": sizes,
               "pruned": Domain(sizes, max_levels=pruned_max_levels(sizes)),
               "uncapped": Domain(sizes)}
    errors: dict[str, dict[str, float]] = {}
    for family in families:
        if family == "range":
            truths = np.array([range_query_count(sides[0], probes[index:index + 1])
                               for index in range(len(probes))])
        else:
            truths = np.array([_EXACT_JOINS[family](*sides)])
        errors[family], answered = {}, {}
        for label, domain in columns.items():
            spec = replace(EstimatorSpec.create(family, domain, instances, seed=seed),
                           split_levels=False)
            if spec not in answered:
                estimates = np.array([result.estimate for result in
                                      probe_answers(spec, sides, probes)])
                answered[spec] = float(np.median(
                    np.abs(estimates - truths) / truths))
            errors[family][label] = answered[spec]
    return errors


def test_default_spec_prunes_the_top(record_gate):
    """The level-cap gate, all counted (seeded, no timing).

    A range name registered from plain sizes stops where data and query
    covers together are least noisy under uniform boxes: over 1024 x 1024
    that is level 7, so its interval tables hold ``max_level + 2 = 9``
    planes (12 uncapped) with the whole-block prefix folded into the top
    two.  What the cap buys is ROADMAP probe (b): the median relative
    error of the end-to-end benchmark's 64 range probes against
    ``repro.exact``, over the derived caps, of the full tree and of the
    worst-case cover rule's cap (8), median of three seeds.
    """
    from repro.core.hashing import FourWiseFamilyBank

    spec = EstimatorSpec.create("range", TABLE_DOMAIN.requested_sizes,
                                TABLE_INSTANCES, seed=7000)
    dyadic = spec.domain().dyadic(0)
    signs = FourWiseFamilyBank(TABLE_INSTANCES, dyadic.num_nodes,
                               seed=7000).resolve_table()
    (bounds,) = dyadic.interval_cover_tables(signs)   # no separate prefix
    planes = len(bounds) // dyadic.size

    errors = [level_cap_probe(seed, families=("range",))["range"]
              for seed in (11, 101, 202)]
    ratio, cover_ratio = (float(np.median([e[label] / e["derived"] for e in errors]))
                          for label in ("uncapped", "pruned"))
    _update_report({"default_spec": {
        "max_levels": list(spec.max_levels),
        "interval_planes": planes,
        "interval_table_bytes": dyadic.interval_table_bytes(TABLE_INSTANCES),
        "rel_err_p50": {label: [e[label] for e in errors]
                        for label in ("uncapped", "pruned", "derived")},
        "accuracy_ratio": ratio,
        "cover_bound_ratio": cover_ratio,
    }})
    text = (f"default 1024 x 1024 range spec: level caps {list(spec.max_levels)}, "
            f"{planes} interval planes (gate: <= 9)\n"
            f"range rel_err_p50 over derived caps, seeds 11 101 202: "
            f"full tree {ratio:.2f}x (gate: >= 3), "
            f"cover-bound cap {cover_ratio:.2f}x (gate: >= 1.15)")
    record_gate("bench_default_spec", [text])
    assert planes == dyadic.max_level + 2 == 9
    assert ratio >= 3.0
    assert cover_ratio >= 1.15
