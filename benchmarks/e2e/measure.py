"""Timed segments, the end-to-end metrics and the verification phase."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exact import range_query_count
from repro.server import protocol
from repro.service import EstimationService

from benchmarks.e2e import harness, workloads as wl


# -- timed segments -----------------------------------------------------------------


@dataclass
class Segment:
    """What one timed segment measured."""

    wall: float = 0.0
    cpu: float = 0.0
    ops: int = 0
    latencies: list[float] = field(default_factory=list)   # ok calls, seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    acked_boxes: int = 0


def call_succeeded(call: wl.Call, replies) -> bool:
    """A call counts only if every reply is ``ok`` and the ingest replies
    acknowledge every box sent; anything else (``overloaded``, a typed
    error, a short ack) is a failed call with no latency."""
    if len(replies) != len(call.payloads):
        return False
    if not all(reply.get("ok") for reply in replies):
        return False
    acked = sum(int(reply.get("boxes", 0)) for reply in replies
                if reply.get("op") == "ingest")
    return acked == call.boxes


def run_calls(client, calls, tally: Tally, keep: list | None = None) -> Segment:
    """Send the calls one after another; ``keep`` collects each call's replies."""
    segment = Segment()
    for call in calls:
        start = time.perf_counter()
        replies = [reply for window in call.windows
                   for reply in client.request_many(window)]
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if keep is not None:
            keep.append(replies)
        if call_succeeded(call, replies):
            segment.latencies.append(elapsed)
            segment.ops += call.ops
            tally.acked_boxes += call.boxes
        else:
            tally.failed += 1
    return segment


def run_segments(fleet: harness.Fleet, plan: wl.Plan, tally: Tally,
                 keep: list | None = None) -> list[Segment]:
    """One untimed warm-up segment, then the timed ones (gc off)."""
    client = fleet.client
    run_calls(client, plan.warmup, tally)
    segments = []
    gc.collect()
    gc.disable()
    try:
        for calls in plan.segments:
            cpu = fleet.cpu_seconds()
            start = time.perf_counter()
            segment = run_calls(client, calls, tally, keep)
            segment.wall = time.perf_counter() - start
            segment.cpu = fleet.cpu_seconds() - cpu
            segments.append(segment)
    finally:
        gc.enable()
    return segments


def summarise(values) -> tuple[float, float]:
    """``(median, relative inter-quartile range)`` over the segments."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


#: below this many calls a segment's own p90 is an interpolation towards its
#: maximum, so the percentiles are taken over the run's pooled calls instead.
POOL_BELOW = 10


def timing_metrics(segments: list[Segment]) -> dict[str, tuple[float, float]]:
    """Every timing metric is the median over segments of the per-segment
    value, reported with its relative IQR over the segments; latency
    percentiles of segments shorter than :data:`POOL_BELOW` calls are pooled."""
    usable = [s for s in segments if s.latencies]
    if not usable:
        raise RuntimeError("no call of any timed segment succeeded")
    metrics = {"ops_per_s": summarise(s.ops / s.wall for s in usable)}
    pooled = [latency for s in usable for latency in s.latencies]
    pool = min(len(s.latencies) for s in usable) < POOL_BELOW
    for name, rank in (("call_p50_ms", 50), ("call_p90_ms", 90)):
        value, spread = summarise(
            1e3 * float(np.percentile(s.latencies, rank)) for s in usable)
        if pool:
            value = 1e3 * float(np.percentile(pooled, rank))
        metrics[name] = (value, spread)
    # A segment shorter than a scheduler tick can read 0 CPU (smoke runs).
    metrics["ops_per_cpu_s"] = summarise(
        s.ops / max(s.cpu, 1.0 / harness.CLOCK_TICKS) for s in usable)
    return metrics


# -- verification -------------------------------------------------------------------


def fetch_answers(fleet: harness.Fleet, plan: wl.Plan) -> dict:
    """The server's answers to the probes, and what it says it ingested."""
    client = fleet.client
    client.flush()
    payloads = [wl.estimate_payload("rq", row) for row in plan.probes]
    payloads += [wl.estimate_payload("rj"), wl.estimate_payload("cj")]
    replies = harness.request_all(client, payloads)
    ingested = 0
    for port in fleet.service_ports():
        with fleet.connect(port) as direct:
            ingested += int(direct.stats()["stats"]["ingested_boxes"])
    return {
        "rq": [reply["estimate"] for reply in replies[:len(plan.probes)]],
        "rj": replies[-2]["estimate"],
        "cj": replies[-1]["estimate"],
        "counts": {reply["name"]: [reply["left_count"], reply["right_count"]]
                   for reply in replies[-3:]},
        "ingested_boxes": ingested,
    }


def compute_reference(plan: wl.Plan) -> dict:
    """Replay the net box stream into an in-process service (one shard, one
    flush, scalar estimates) — by counter linearity the server's sharded,
    delta-refreshed, coalesced answers must be bit-identical."""
    service = EstimationService(num_shards=1, flush_threshold=None)
    for name, spec in wl.estimator_specs().items():
        service.register(name, spec)
    for (name, side), rows in plan.net.items():
        service.ingest(name, protocol.boxes_from_rows(rows), side=side)
    service.flush()
    probes = [protocol.boxes_from_rows([row]) for row in plan.probes]
    data = protocol.boxes_from_rows(plan.net["rq", "data"])
    joins = {name: service.estimate(name) for name in ("rj", "cj")}
    rq = [service.estimate("rq", probe) for probe in probes]
    counts = {name: [result.left_count, result.right_count]
              for name, result in joins.items()}
    counts["rq"] = [rq[-1].left_count, rq[-1].right_count]
    return {
        "rq": [result.estimate for result in rq],
        "rj": joins["rj"].estimate,
        "cj": joins["cj"].estimate,
        "counts": counts,
        "truth": [range_query_count(data, probe) for probe in probes],
    }


def verify(plan: wl.Plan, answers: dict, tally: Tally) -> tuple[list[str], dict]:
    """``(problems, reference answers)`` for a finished run."""
    reference = compute_reference(plan)
    preloaded = sum(len(rows) for _, _, rows in plan.preload)
    return (mismatches(answers, reference, preloaded + tally.acked_boxes),
            reference)


def mismatches(answers: dict, reference: dict, expected_boxes: int) -> list[str]:
    """Everything that makes the run incorrect (empty = verified)."""
    problems = []
    for index, (got, want) in enumerate(zip(answers["rq"], reference["rq"])):
        if got != want:
            problems.append(f"rq probe {index}: server {got!r} != reference {want!r}")
    for name in ("rj", "cj"):
        if answers[name] != reference[name]:
            problems.append(f"{name}: server {answers[name]!r} != "
                            f"reference {reference[name]!r}")
    for name, want in reference["counts"].items():
        if list(answers["counts"].get(name, ())) != list(want):
            problems.append(f"{name} counts: server {answers['counts'].get(name)} "
                            f"!= reference {want}")
    if answers["ingested_boxes"] != expected_boxes:
        problems.append(f"stats.ingested_boxes {answers['ingested_boxes']} != "
                        f"{expected_boxes} boxes acknowledged")
    return problems


def rel_err_p50(answers: dict, reference: dict) -> float:
    errors = [abs(got - truth) / truth
              for got, truth in zip(answers["rq"], reference["truth"])]
    return statistics.median(errors)
