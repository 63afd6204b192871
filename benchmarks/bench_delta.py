"""Delta-propagation benchmark: incremental view refresh vs rebuild-on-flush.

This is the perf-regression gate of the delta-propagation fast path: a hot
mixed ingest+estimate workload — small update batches flushed round after
round, each flush followed by the same large mixed query batch (the shape
a serving layer sees from a live feed plus dashboard polling) — answered
through

* the **rebuild path**: a service with ``delta_propagation=False``, so
  every flush invalidates the merged-view cache and the next estimate
  batch pays a full view rebuild — fresh xi bank objects and a full
  shard re-merge (the pre-delta steady-state serving cost), and
* the **delta path**: a service with ``delta_propagation=True`` (the
  default), where each refresh is one fused counter add per bank onto the
  previous cached view with the xi families *aliased* — so the sign
  tables stay warm across flushes,

and the delta path's steady-state rounds must stay **under an absolute
ceiling** (``MAX_DELTA_SECONDS``, 2x the recorded value).  The gate used
to be relative — delta >= 3x rebuild (3.8x measured) — but nearly all of
that ratio was the *rebuilt* view's fresh xi banks evaluating the
polynomial from zero.  Since the sign table belongs to the xi *family*, a
rebuilt view serves from the family's table at once: rebuild-on-flush went 4.5 s -> 1.0 s on this workload, the
delta path 1.2 s -> 0.8-1.1 s, and the ratio (0.9-1.2x over five runs,
still reported) no longer says anything about the delta path.  A ceiling
on the delta path's own seconds does: a regression there fails CI whatever
the baseline does.  Estimates are asserted bit-identical between the two
paths every round — counter updates are exact integers in float64, so the
fused ``base + delta`` add reproduces the full re-merge exactly.

The run writes ``BENCH_delta.json`` and its human-readable record
``BENCH_delta.txt`` at the repository root; CI consumes the JSON report
and fails the perf-smoke job when the delta path exceeds its ceiling.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_delta.json"

DOMAIN = Domain.square(65536, dimension=2)
NUM_INSTANCES = 192
SEED_BOXES = 4000          # initial bulk load per side
DELTA_BOXES = 16           # boxes per ingest batch in the hot loop
WARMUP_ROUNDS = 1          # first refresh is a rebuild on both paths
ROUNDS = 8                 # timed steady-state flush+estimate rounds
RANGE_QUERIES = 1024       # range queries per post-flush batch
QUERYLESS_REQUESTS = 32    # join estimates per post-flush batch
MAX_DELTA_SECONDS = 2.0   # 2x the median of 0.81-1.34 s over ten recorded runs

NAMES = ("ranges", "join")


def _make_service(*, delta_propagation: bool) -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None,
                                delta_propagation=delta_propagation)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=11)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=NUM_INSTANCES, seed=12)
    boxes = synthetic_boxes(DOMAIN, SEED_BOXES, seed=1)
    service.ingest("ranges", boxes, side="data")
    service.ingest("join", boxes, side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, SEED_BOXES, seed=2),
                   side="right")
    service.flush()
    return service


def _mixed_requests() -> list:
    queries = synthetic_queries(DOMAIN, RANGE_QUERIES, seed=7)
    requests = [("ranges", queries[index:index + 1])
                for index in range(len(queries))]
    requests.extend(("join", None) for _ in range(QUERYLESS_REQUESTS))
    return requests


def _one_round(service: EstimationService, round_index: int, requests) -> list:
    """One hot-loop round: flush small batches, answer the mixed query set."""
    service.ingest("ranges",
                   synthetic_boxes(DOMAIN, DELTA_BOXES, seed=100 + round_index),
                   side="data")
    service.ingest("join",
                   synthetic_boxes(DOMAIN, DELTA_BOXES, seed=200 + round_index),
                   side="left")
    service.flush()
    results = service.estimate_multi(requests)
    return [(r.estimate, r.instance_values.tobytes()) for r in results]


def test_delta_refresh_vs_rebuild(benchmark, record_gate):
    """The acceptance gate: delta-applied refresh under its ceiling, bit-identical."""
    requests = _mixed_requests()
    with_delta = _make_service(delta_propagation=True)
    without_delta = _make_service(delta_propagation=False)

    # Warm-up: the first refresh after a cold start is a full rebuild on
    # both paths (and JITs/populates every lazy structure); steady state
    # starts with the second flush.
    for round_index in range(WARMUP_ROUNDS):
        warm_delta = _one_round(with_delta, round_index, requests)
        warm_rebuild = _one_round(without_delta, round_index, requests)
        assert warm_delta == warm_rebuild

    def run_rebuild() -> tuple[float, list]:
        outputs = []
        start = time.perf_counter()
        for round_index in range(WARMUP_ROUNDS, WARMUP_ROUNDS + ROUNDS):
            outputs.append(_one_round(without_delta, round_index, requests))
        return time.perf_counter() - start, outputs

    def run_delta() -> tuple[float, list]:
        outputs = []
        start = time.perf_counter()
        for round_index in range(WARMUP_ROUNDS, WARMUP_ROUNDS + ROUNDS):
            outputs.append(_one_round(with_delta, round_index, requests))
        return time.perf_counter() - start, outputs

    rebuild_seconds, rebuild_outputs = run_rebuild()
    delta_seconds, delta_outputs = benchmark.pedantic(run_delta, rounds=1,
                                                      iterations=1)

    identical = delta_outputs == rebuild_outputs
    assert identical  # bit-for-bit, including the instance-value vectors

    speedup = rebuild_seconds / delta_seconds
    on_stats = with_delta.stats
    off_stats = without_delta.stats
    total_rounds = WARMUP_ROUNDS + ROUNDS
    total_requests = ROUNDS * len(requests)

    report = {
        "domain": list(DOMAIN.requested_sizes),
        "num_instances": NUM_INSTANCES,
        "hot_workload": {
            "names": len(NAMES),
            "rounds": ROUNDS,
            "delta_boxes_per_round": len(NAMES) * DELTA_BOXES,
            "requests_per_round": len(requests),
            "total_requests": total_requests,
            "rebuild_seconds": rebuild_seconds,
            "delta_seconds": delta_seconds,
            "rebuild_qps": total_requests / rebuild_seconds,
            "delta_qps": total_requests / delta_seconds,
            "speedup": speedup,
            "max_delta_seconds": MAX_DELTA_SECONDS,
            "identical": int(identical),
        },
        "delta_path": {
            "delta_applies": on_stats.delta_applies,
            "rebuilds": on_stats.rebuilds,
            "cache_misses": on_stats.cache_misses,
        },
        "rebuild_path": {
            "delta_applies": off_stats.delta_applies,
            "rebuilds": off_stats.rebuilds,
            "cache_misses": off_stats.cache_misses,
        },
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")

    # Steady state must be all delta-applies on the fast path (one rebuild
    # per name at cold start), all rebuilds on the baseline.
    assert on_stats.delta_applies == len(NAMES) * (total_rounds - 1)
    assert on_stats.rebuilds == len(NAMES)
    assert off_stats.delta_applies == 0
    assert off_stats.rebuilds == len(NAMES) * total_rounds

    lines = [
        f"delta propagation: {ROUNDS} rounds x ({len(NAMES) * DELTA_BOXES} "
        f"flushed boxes + {len(requests)} mixed estimates) over "
        f"{len(NAMES)} estimators ({NUM_INSTANCES} instances)",
        f"rebuild-on-flush: {rebuild_seconds:8.3f} s "
        f"({total_requests / rebuild_seconds:10.0f} q/s, "
        f"{off_stats.rebuilds} full re-merges)",
        f"delta refresh   : {delta_seconds:8.3f} s "
        f"({total_requests / delta_seconds:10.0f} q/s, "
        f"{on_stats.delta_applies} delta applies; "
        f"gate: <= {MAX_DELTA_SECONDS} s)",
        f"speedup         : {speedup:8.1f}x (informational)",
        "estimates       : bit-identical across both paths",
    ]
    record_gate("bench_delta", lines)
    assert delta_seconds <= MAX_DELTA_SECONDS
