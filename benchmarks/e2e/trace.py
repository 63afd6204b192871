"""Per-layer metrics (``--trace 1``): live counters plus a traced replay.

Two sources, neither of which changes a file under ``src/``:

* **Counters** come from the live servers' own ``stats``/``metrics`` verbs,
  read immediately before and after the timed segments of an untraced run.
* **Times** come from replaying the workload's warm-up and first two timed
  segments *in-process, single-threaded*, through the layers' public
  functions in the order the server calls them.  Every call into a layer
  is wrapped in a span (name, start, end, parent, call id); a layer's time
  is its spans' self time.  Work the replay cannot reach from outside
  (kernels below ``ProgramExecutor.run`` and ``IngestPipeline.flush``) is
  measured by *probes*: the same public function called on the same inputs
  under a separate ``probes`` root, so nothing is counted twice.

What the replay cannot see — the event loop, sockets, thread hand-offs,
the coalescer's wait — is the *residual*: live ``call_p50_ms`` minus the
traced time of the same calls.

The replay copies the order in which ``EstimationService.ingest`` and
``estimate_multi`` call the layers.  So that the copy cannot drift from
``src/`` unnoticed, every replayed call's replies must equal the live
server's (they are bit-identical by counter linearity) and the replay must
flush as often per call as the live servers did; otherwise the traced run
fails.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import statistics
import tempfile
import time
from contextlib import closing, contextmanager

import numpy as np

from repro.cluster.partial import reduce_partials
from repro.core.boosting import median_of_means_batch
from repro.server import protocol, wire
from repro.server.coalescer import EstimateCoalescer
from repro.service import apply_update, partition_boxes
from repro.service.delta import delta_merged_view, empty_delta_estimator
from repro.service.specs import compile_programs
from repro.wal.recovery import recover_service

from benchmarks.e2e import harness, measure, workloads as wl

FLUSH_THRESHOLD = wl.FRAMES_PER_INGEST_CALL * wl.FRAME_BOXES
REPLAY_SEGMENTS = 2


# -- spans --------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    COLUMNS = ("id", "name", "call", "parent", "start", "end", "count")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, call, count: int = 1):
        record = [len(self.spans), name, call,
                  self._stack[-1] if self._stack else None, 0.0, 0.0, count]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.perf_counter()
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [span[5] - span[4] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[5] - span[4]
        return own

    def totals(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self seconds, summed count)."""
        totals: dict[str, tuple[float, int]] = {}
        for span, own in zip(self.spans, self.self_times()):
            seconds, count = totals.get(span[1], (0.0, 0))
            totals[span[1]] = (seconds + own, count + span[6])
        return totals

    def write(self, path, **header) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        rows = [[s[0], s[1], s[2], s[3], round(s[4] - origin, 9),
                 round(s[5] - origin, 9), s[6]] for s in self.spans]
        path.write_text(json.dumps(
            {**header, "columns": self.COLUMNS, "spans": rows}) + "\n")


# -- live counters ------------------------------------------------------------------


def read_counters(fleet: harness.Fleet, *, before: bool) -> dict[str, float]:
    """Flat counters of every server-side process.

    The edge ``stats`` is the read closest to the timed segments on both
    sides; the sizes of its own frames are recorded so the wire byte
    deltas count the workload's frames only.
    """
    def services() -> list[dict]:
        if not fleet.routed:
            return []
        replies = []
        for port in fleet.service_ports():
            with fleet.connect(port) as direct:
                replies.append(direct.stats())
        return replies

    edge = fleet.client
    if before:
        direct = services()
        metrics = edge.request({"op": "metrics"})
        stats = edge.stats()
    else:
        stats = edge.stats()
        metrics = edge.request({"op": "metrics"})
        direct = services()
    binary = stats["server"]["wire"].get(wire.WIRE_BINARY, {})
    out: dict[str, float] = {
        "wire_in": binary.get("bytes_in", 0),
        "wire_out": binary.get("bytes_out", 0),
        "stats_request_bytes": len(wire.encode_binary({"op": "stats"})),
        "stats_reply_bytes": len(wire.encode_binary(stats)),
        "coalesce_batches": stats["server"].get("coalesce_batches", 0),
        "cross_dispatches": stats["server"].get(
            "cross_estimator_dispatches", 0),
        "edge_estimates": metrics["requests"].get("estimate", 0),
    }
    for line in metrics["text"].splitlines():
        if line.startswith('repro_server_estimate_latency_ms{quantile="0.5"}'):
            out["server_estimate_p50_ms"] = float(line.rsplit(" ", 1)[1])
    workers = metrics.get("workers", {})
    out["worker_estimates"] = sum(
        w["requests"].get("estimate", 0) for w in workers.values())
    out["worker_bytes"] = sum(
        counters["bytes_in"] + counters["bytes_out"]
        for w in workers.values() for counters in w["wire"].values())
    for reply in direct or [stats]:
        for group, prefix in (("stats", "service_"),
                              ("program_executor", "program_"),
                              ("ingest", "ingest_")):
            for key, value in reply[group].items():
                out[prefix + key] = out.get(prefix + key, 0) + value
        out["wal_bytes"] = out.get("wal_bytes", 0) + reply["wal"]["bytes"]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(before: dict, after: dict, calls: int, ops: int,
                    estimates: int) -> dict[str, float]:
    delta = {key: after[key] - before.get(key, 0) for key in after}
    views = delta["service_cache_hits"] + delta["service_cache_misses"]
    return {
        "server.wire.request_bytes_per_op": _ratio(
            delta["wire_in"] - after["stats_request_bytes"], ops),
        "server.wire.reply_bytes_per_op": _ratio(
            delta["wire_out"] - before["stats_reply_bytes"], ops),
        "server.coalescer.coalesce_factor": _ratio(
            delta["service_coalesced_queries"], delta["coalesce_batches"]),
        "server.coalescer.cross_dispatch_share": _ratio(
            delta["cross_dispatches"], delta["coalesce_batches"]),
        "server.coalescer.batches_per_call": _ratio(
            delta["coalesce_batches"], calls),
        # The server's window keeps its last 4096 samples; without timed
        # estimates it would still show the set-up's.
        "server.server.estimate_p50_ms": (
            after.get("server_estimate_p50_ms", 0.0) if estimates else 0.0),
        "service.service.view_hit_share": _ratio(
            delta["service_cache_hits"], views),
        "service.service.delta_apply_share": _ratio(
            delta["service_delta_applies"], delta["service_cache_misses"]),
        "service.ingest.flushes_per_kbox": _ratio(
            delta["ingest_flushes"], delta["ingest_flushed_boxes"] / 1e3),
        "core.program.letter_sum_reuse_share": (
            1.0 - _ratio(delta["program_letter_sums_computed"],
                         delta["program_letter_sums_requested"])
            if delta["program_letter_sums_requested"] else 0.0),
        "core.program.letter_sums_computed_per_query": _ratio(
            delta["program_letter_sums_computed"], estimates),
        "core.program.kernel_calls_per_call": _ratio(
            delta["program_kernel_calls"], calls),
        "wal.writer.bytes_per_box": _ratio(
            delta["wal_bytes"], delta["service_ingested_boxes"]),
        "cluster.router.scatter_requests_per_query": _ratio(
            delta["worker_estimates"], delta["edge_estimates"]),
        "cluster.router.worker_bytes_per_query": _ratio(
            delta["worker_bytes"], delta["edge_estimates"]),
    }


# -- the in-process replay ----------------------------------------------------------


class Replay:
    """Serves a plan's calls through the layers' public functions."""

    def __init__(self, plan: wl.Plan, directory: str) -> None:
        self.tracer = Tracer()
        # What `serve --wal-dir DIR --wal-sync flush --shards 4` builds.
        self.service, _ = recover_service(directory, sync="flush",
                                          num_shards=4)
        self.specs = wl.estimator_specs()
        for name, spec in self.specs.items():
            self.service.register(name, spec)
        for name, side, rows in plan.preload:
            for at in range(0, len(rows), wl.FRAME_BOXES):
                self.service.ingest(
                    name, protocol.boxes_from_rows(rows[at:at + wl.FRAME_BOXES]),
                    side=side)
        self.service.flush()
        self.service.estimate_multi(
            [("rq", protocol.boxes_from_rows([plan.probes[0]])),
             ("rj", None), ("cj", None)])
        # Inputs the probes re-use, collected while spans are recorded.
        self.recording = False
        self.ingested: list[tuple[str, str, str, object]] = []
        self.rq_queries: list[np.ndarray] = []     # one (k, 4) array per call
        self.values: list[np.ndarray] = []         # per-instance value vectors
        self.cover_blocks = 0

    def close(self) -> None:
        self.service.detach_wal()

    def start_recording(self) -> None:
        """Drop the spans so far (the warm-up's) and start keeping the
        inputs the probes re-use."""
        self.tracer = Tracer()
        self.recording = True

    # .. one call ...................................................................

    def call(self, call: wl.Call, call_id) -> list[dict]:
        """Serve one call; returns its replies as the client decodes them."""
        replies: list[dict] = []
        with self.tracer.span("call", call_id):
            for window in call.windows:
                replies.extend(self._window(window, call_id))
        return replies

    def _window(self, payloads, call_id) -> list[dict]:
        span = self.tracer.span
        with span("client.encode", call_id, len(payloads)):
            frames = [wire.encode_frame(payload, wire.WIRE_BINARY)
                      for payload in payloads]
        requests = []
        for frame in frames:
            with span("server.wire.decode", call_id):
                header_len = wire.FRAME_PREFIX.unpack_from(frame)[1]
                split = wire.PREFIX_SIZE + header_len
                requests.append(wire.decode_binary(
                    frame[wire.PREFIX_SIZE:split], frame[split:]))
        reply_frames = []
        for reply in self._serve(requests, call_id):
            with span("server.wire.encode", call_id):
                reply_frames.append(wire.encode_frame(reply, wire.WIRE_BINARY))
        with span("client.decode", call_id, len(reply_frames)):
            stream = io.BytesIO(b"".join(reply_frames))
            return [wire.read_binary_frame_sync(stream) for _ in reply_frames]

    def _serve(self, requests: list[dict], call_id) -> list[dict]:
        replies: list[dict] = []
        queued: list[dict] = []

        def dispatch() -> None:
            # The coalescer hands the engine at most max_batch queries.
            while queued:
                replies.extend(
                    self._estimates(queued[:harness.MAX_BATCH], call_id))
                del queued[:harness.MAX_BATCH]

        rq_rows = []
        for request in requests:
            if request["op"] == "estimate":
                queued.append(request)
                if request["name"] == "rq":
                    rq_rows.append(request["query"])
                continue
            dispatch()
            if request["op"] == "ingest":
                replies.append(self._ingest(request, call_id))
            else:
                with self.tracer.span("service.ingest.flush", call_id,
                                      self.service.pending):
                    report = self.service.flush()
                replies.append(protocol.ok_payload(
                    "flush", request, boxes=report.boxes,
                    batches=report.batches))
        dispatch()
        if rq_rows and self.recording:
            self.rq_queries.append(np.asarray(rq_rows, dtype=np.int64))
        return replies

    def _ingest(self, request: dict, call_id) -> dict:
        span = self.tracer.span
        service = self.service
        name, kind = request["name"], request["kind"]
        spec = service.spec(name)
        with span("server.protocol.boxes_from_rows", call_id,
                  len(request["boxes"])):
            boxes = protocol.boxes_from_rows(request["boxes"], spec.dimension)
        side = spec.info.resolve_side(request["side"])
        # EstimationService.ingest, step by step: log, buffer, auto-flush.
        with span("wal.writer.append", call_id, len(boxes)):
            service.wal.append_update(
                name, side, kind, np.hstack((boxes.lows, boxes.highs)))
        with span("service.ingest.submit", call_id, len(boxes)):
            pending = service.pipeline.submit(name, boxes, side=side,
                                              kind=kind)
        if pending >= FLUSH_THRESHOLD:
            with span("service.ingest.flush", call_id, pending):
                service.flush(auto=True)
        if self.recording:
            self.ingested.append((name, side, kind, boxes))
        return protocol.ok_payload("ingest", request, boxes=len(boxes),
                                   pending=service.pending)

    def _estimates(self, batch: list[dict], call_id) -> list[dict]:
        span = self.tracer.span
        service = self.service
        queries = []
        for request in batch:
            row = request["query"]
            if row is None:
                queries.append(None)
            else:
                with span("server.protocol.query_from_row", call_id):
                    queries.append(protocol.boxes_from_rows(
                        [row], service.spec(request["name"]).dimension))
        # EstimationService.estimate_multi, step by step.
        with span("service.service.estimate_multi", call_id, len(batch)):
            order: dict[str, list[int]] = {}
            for index, request in enumerate(batch):
                order.setdefault(request["name"], []).append(index)
            programs = []
            for name, indices in order.items():
                with span("service.service.view_fetch", call_id):
                    view = service.merged_view(name)
                with span("service.specs.compile", call_id, len(indices)):
                    programs.extend(compile_programs(
                        service.spec(name), view,
                        [queries[index] for index in indices]))
            with span("core.program.run", call_id, len(batch)):
                outcomes = service.program_executor.run(programs)
            results: list = [None] * len(batch)
            position = 0
            for indices in order.values():
                for index in indices:
                    results[index] = outcomes[position]
                    position += 1
        if self.recording:
            self.values.extend(result.instance_values for result in results)
        replies = []
        for request, result in zip(batch, results):
            with span("server.protocol.estimate_fields", call_id):
                replies.append(protocol.ok_payload(
                    "estimate", request, name=request["name"],
                    **protocol.estimate_fields(result)))
        return replies

    # .. probes .....................................................................

    def probes(self, partial_states: list, probes: np.ndarray,
               expected: list[float]) -> list[str]:
        """Isolated layer measurements on the inputs the replay recorded.

        ``partial_states`` are the live workers' final rq states (routed
        runs only); reducing them must reproduce the ``expected`` answers.
        """
        span = self.tracer.span
        service = self.service
        problems: list[str] = []
        with span("probes", None):
            scratch = {name: spec.build() for name, spec in self.specs.items()}
            for name, side, kind, boxes in self.ingested:
                with span("service.store.partition_boxes", None, len(boxes)):
                    partition_boxes(boxes, service.num_shards)
                with span("core.atomic.insert", None, len(boxes)):
                    apply_update(self.specs[name], scratch[name], side, kind,
                                 boxes)
            view = service.merged_view("rq")
            for rows in self.rq_queries:
                self._query_probes(view, rows)
            if self.values:
                matrix = np.stack(self.values)
                with span("core.boosting.reduce", None, len(matrix)):
                    median_of_means_batch(matrix)
            fresh = protocol.boxes_from_rows(
                wl.rows_of(wl.synthetic_boxes(wl.DOMAIN, wl.FRESH_BOXES,
                                              seed=wl.DATA_SEED)))
            for _ in range(5):
                delta = empty_delta_estimator(view)
                apply_update(self.specs["rq"], delta, "data", "insert", fresh)
                with span("service.delta.apply", None):
                    delta_merged_view(view, delta)
                with span("service.store.merge_view", None):
                    service.store.merge_view("rq")
            if partial_states:
                for index, row in enumerate(probes[:8]):
                    query = protocol.boxes_from_rows([row])
                    with span("cluster.router.reduce", None):
                        result = reduce_partials(self.specs["rq"],
                                                 partial_states, query)
                    if result.estimate != expected[index]:
                        problems.append(
                            f"reduce_partials probe {index}: "
                            f"{result.estimate!r} != {expected[index]!r}")
        return problems

    def _query_probes(self, view, rows: np.ndarray) -> None:
        span = self.tracer.span
        queries = protocol.boxes_from_rows(rows)
        domain = self.specs["rq"].domain()
        with span("core.dyadic.covers", None, len(rows)):
            for dim in range(queries.dimension):
                _, lengths = domain.dyadic(dim).covers(
                    queries.lows[:, dim], queries.highs[:, dim])
                self.cover_blocks += int(lengths.sum())
        groups: dict[tuple, tuple[object, list, list]] = {}
        for program in compile_programs(self.specs["rq"], view, queries):
            for ref in program.letter_sum_refs:
                _, lows, highs = groups.setdefault(
                    (ref.dim, ref.letter), (ref.bank, [], []))
                lows.append(ref.low)
                highs.append(ref.high)
        with span("core.atomic.letter_sums", None, len(rows)):
            for (dim, letter), (bank, lows, highs) in groups.items():
                bank.letter_sums(dim, letter, np.asarray(lows),
                                 np.asarray(highs))


def size_dispatch_share(service, calls) -> float:
    """Share of coalescer dispatches triggered by size rather than the timer.

    The ``stats`` verb does not expose the two trigger counts, so this feeds
    the calls' estimate bursts to an in-process :class:`EstimateCoalescer`
    with the server's settings and reads its public ``stats``.
    """
    bursts = []
    for call in calls:
        burst = [(p["name"], None if p["query"] is None
                  else protocol.boxes_from_rows([p["query"]]))
                 for p in call.payloads if p["op"] == "estimate"]
        if burst:
            bursts.append(burst)
    if not bursts:
        return 0.0

    async def feed():
        coalescer = EstimateCoalescer(lambda: service,
                                      max_batch=harness.MAX_BATCH,
                                      max_delay=harness.MAX_DELAY_MS / 1e3)
        for burst in bursts:
            await asyncio.gather(*(coalescer.submit(name, query)
                                   for name, query in burst))
        await coalescer.drain()
        return coalescer.stats

    stats = asyncio.run(feed())
    return _ratio(stats.size_dispatches, stats.batches)


# -- the traced run -----------------------------------------------------------------


#: metric -> span whose summed self time is divided by its summed count
#: (frames, boxes or queries).
US_PER_ITEM = {
    "server.wire.decode_us_per_frame": "server.wire.decode",
    "server.wire.encode_us_per_frame": "server.wire.encode",
    "server.protocol.boxes_from_rows_us_per_box": "server.protocol.boxes_from_rows",
    "server.protocol.estimate_fields_us_per_query": "server.protocol.estimate_fields",
    "service.ingest.submit_us_per_box": "service.ingest.submit",
    "service.ingest.flush_us_per_box": "service.ingest.flush",
    "service.store.partition_us_per_box": "service.store.partition_boxes",
    "service.specs.compile_us_per_query": "service.specs.compile",
    "core.program.run_us_per_query": "core.program.run",
    "core.dyadic.covers_us_per_query": "core.dyadic.covers",
    "core.atomic.letter_sums_us_per_query": "core.atomic.letter_sums",
    "core.atomic.insert_us_per_box": "core.atomic.insert",
    "core.boosting.reduce_us_per_query": "core.boosting.reduce",
    "wal.writer.append_us_per_box": "wal.writer.append",
    "cluster.router.reduce_us_per_query": "cluster.router.reduce",
}
#: metric -> span whose summed self time is divided by the replayed calls.
US_PER_CALL = {
    "client.encode_us_per_call": "client.encode",
    "client.decode_us_per_call": "client.decode",
    "service.service.view_fetch_us_per_call": "service.service.view_fetch",
}


def span_metrics(replay: Replay, calls: int) -> dict[str, float]:
    totals = replay.tracer.totals()
    durations: dict[str, list[float]] = {}
    for span in replay.tracer.spans:
        durations.setdefault(span[1], []).append(span[5] - span[4])

    def median_ms(name: str) -> float:
        return 1e3 * statistics.median(durations.get(name, [0.0]))

    values = {metric: _ratio(1e6 * totals.get(name, (0.0, 0))[0],
                             totals.get(name, (0.0, 0))[1])
              for metric, name in US_PER_ITEM.items()}
    values.update({metric: 1e6 * totals.get(name, (0.0, 0))[0] / calls
                   for metric, name in US_PER_CALL.items()})
    # estimate_multi is reported whole (children included): it is the
    # engine call the coalescer makes.
    multi = "service.service.estimate_multi"
    values["service.service.estimate_multi_us_per_query"] = _ratio(
        1e6 * sum(durations.get(multi, ())), totals.get(multi, (0.0, 0))[1])
    values["service.delta.apply_ms"] = median_ms("service.delta.apply")
    values["service.store.merge_view_ms"] = median_ms("service.store.merge_view")
    values["core.dyadic.cover_size_mean"] = _ratio(
        replay.cover_blocks, totals.get("core.dyadic.covers", (0.0, 0))[1])
    values["traced_call_ms"] = median_ms("call")
    return values


@dataclasses.dataclass
class Live:
    """What the traced run needs from an untraced live run."""

    tally: measure.Tally
    segments: list
    replies: list          # one list of reply payloads per timed call
    before: dict
    after: dict
    peak_rss_mb: float
    answers: dict
    states: list           # the workers' final rq states (routed runs)


def _live(plan: wl.Plan, *, counters: bool) -> Live:
    fleet, _ = harness.set_up(plan)
    with fleet:
        tally = measure.Tally()
        # The warm-up runs before the first counter read, so the deltas
        # cover exactly the timed segments.
        measure.run_calls(fleet.client, plan.warmup, tally)
        before = read_counters(fleet, before=True) if counters else {}
        replies: list = []
        segments = measure.run_segments(
            fleet, dataclasses.replace(plan, warmup=()), tally, replies)
        after = read_counters(fleet, before=False) if counters else {}
        peak_rss_mb = fleet.peak_rss_mb()
        answers = measure.fetch_answers(fleet, plan)
        states = []
        if counters and fleet.routed:
            for port in fleet.service_ports():
                with fleet.connect(port) as direct:
                    states.append(direct.request(
                        {"op": "estimate", "name": "rq", "partial": True,
                         "encoding": "arrays"})["state"])
    return Live(tally, segments, replies, before, after, peak_rss_mb, answers,
                states)


#: reply fields that depend on thread timing (how many boxes other
#: pipelined frames had buffered) or on the fleet's shape, not on the data.
UNPINNED_REPLY_FIELDS = ("pending", "batches")


def replay_mismatches(index: int, replayed: list[dict],
                      live: list[dict]) -> list[str]:
    def pinned(reply: dict) -> dict:
        return {key: value for key, value in reply.items()
                if key not in UNPINNED_REPLY_FIELDS}

    if len(replayed) != len(live):
        return [f"replayed call {index}: {len(replayed)} replies != "
                f"{len(live)} live replies"]
    return [f"replayed call {index} reply {at}: {pinned(mine)} != live "
            f"{pinned(theirs)}"
            for at, (mine, theirs) in enumerate(zip(replayed, live))
            if pinned(mine) != pinned(theirs)]


def run_traced(plan: wl.Plan, layer_names) -> dict:
    """One ``--trace 1`` run: every name in ``layer_names`` gets a value
    (0.0 where the workload does not exercise the layer)."""
    live = _live(plan, counters=True)
    tally = live.tally
    problems, reference = measure.verify(plan, live.answers, tally)
    timed = [call for segment in plan.segments for call in segment]
    timings = {name: value for name, (value, _)
               in measure.timing_metrics(live.segments).items()}
    live_p50_ms = timings["call_p50_ms"]

    values = dict.fromkeys(layer_names, 0.0)
    # End-to-end metrics without a regression bound are listed per layer.
    values.update({name: value for name, value
                   in {**timings, "peak_rss_mb": live.peak_rss_mb}.items()
                   if name in values})
    values.update(counter_metrics(
        live.before, live.after, calls=len(timed),
        ops=sum(c.ops for c in timed),
        estimates=sum(c.estimates for c in timed)))

    if plan.routed:
        # The identical cycle on one server isolates what the router adds.
        single = dataclasses.replace(plan, routed=False,
                                     segments=plan.segments[:3])
        fresh_p50_ms = measure.timing_metrics(
            _live(single, counters=False).segments)["call_p50_ms"][0]
        values["cluster.router.overhead_ms_per_call"] = live_p50_ms - fresh_p50_ms

    harness.OUT.mkdir(exist_ok=True)
    replayed = [call for segment in plan.segments[:REPLAY_SEGMENTS]
                for call in segment]
    with tempfile.TemporaryDirectory(prefix="replay-",
                                     dir=harness.OUT) as directory, \
            closing(Replay(plan, directory)) as replay:
        for call in plan.warmup:
            replay.call(call, None)
        replay.start_recording()
        for index, call in enumerate(replayed):
            problems += replay_mismatches(index, replay.call(call, index),
                                          live.replies[index])
        problems += replay.probes(live.states, plan.probes, reference["rq"])
        if not plan.routed:     # a router does not coalesce
            values["server.coalescer.size_dispatch_share"] = (
                size_dispatch_share(replay.service, replayed))

    # Every service process of the fleet flushes once per replayed flush.
    replay_flushes = sum(1 for span in replay.tracer.spans
                         if span[1] == "service.ingest.flush")
    expected = (replay_flushes * len(timed) // len(replayed)
                * (harness.ROUTED_WORKERS if plan.routed else 1))
    live_flushes = (live.after["ingest_flushes"]
                    - live.before["ingest_flushes"])
    if live_flushes != expected:
        problems.append(f"live servers flushed {live_flushes} times in "
                        f"{len(timed)} calls, the replay implies {expected}")

    spans = span_metrics(replay, len(replayed))
    traced_ms = spans.pop("traced_call_ms")
    values.update(spans)
    # The server flushes shards in parallel and the replay one by one, so
    # the difference only means "unaccounted" for calls that flush nothing.
    if not any(call.boxes for call in replayed):
        values["server.server.residual_ms_per_call"] = live_p50_ms - traced_ms
        values["server.server.residual_share"] = _ratio(
            live_p50_ms - traced_ms, live_p50_ms)
    replay.tracer.write(harness.OUT / f"trace_{plan.workload}.json",
                        workload=plan.workload, seed=plan.seed,
                        live_call_p50_ms=live_p50_ms,
                        traced_call_p50_ms=traced_ms)
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "succeeded": tally.attempted - tally.failed, "problems": problems,
        "per_layer": values,
        "samples": {"segments": len(live.segments),
                    "timed_calls": sum(len(s.latencies)
                                       for s in live.segments),
                    "replayed_calls": len(replayed)},
    }
