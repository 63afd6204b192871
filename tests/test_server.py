"""Async tests of the network serving layer (server, coalescer, protocol).

The tests drive a real :class:`SketchServer` over loopback TCP from inside
one event loop (``asyncio.run`` wrappers — no async test plugin needed).
"""

import asyncio
import json
import threading

import pytest

from repro.cli import listening_socket
from repro.core.domain import Domain
from repro.errors import ProtocolError, ServiceError
from repro.server import protocol
from repro.server.coalescer import EstimateCoalescer
from repro.server.front import WriteGate
from repro.server.server import ServerConfig, SketchServer
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

DOMAIN = Domain.square(256, dimension=2)


def make_service(*, instances: int = 32, data: int = 400) -> EstimationService:
    service = EstimationService(num_shards=2)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=instances, seed=5)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=instances, seed=7)
    service.ingest("ranges", synthetic_boxes(DOMAIN, data, seed=1), side="data")
    service.ingest("join", synthetic_boxes(DOMAIN, data, seed=2), side="left")
    service.ingest("join", synthetic_boxes(DOMAIN, data, seed=3), side="right")
    service.flush()
    return service


class Connection:
    """A minimal asyncio protocol client for the tests."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, payload: dict) -> None:
        self.writer.write(protocol.encode(payload))
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def round_trip(self, payload: dict) -> dict:
        await self.send(payload)
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_server(service, **config_kwargs) -> SketchServer:
    config = ServerConfig(port=0, **config_kwargs)
    server = SketchServer(service, config=config)
    await server.start(listening_socket(config.host, config.port))
    return server


def test_coalescing_bounds_engine_calls():
    """Satellite: N concurrent estimates -> <= ceil(N/max_batch) engine calls."""
    service = make_service()
    queries = synthetic_queries(DOMAIN, 32, seed=9)
    expected = [service.estimate("ranges", queries[i]).estimate
                for i in range(32)]
    before = service.stats.batch_estimates

    calls = []
    inner = service.answer_multi

    def counting(requests):
        calls.append(len(requests))
        return inner(requests)

    service.answer_multi = counting

    async def main():
        # A long delay window so only the size trigger dispatches: every
        # engine call must carry a full max_batch of queries.
        server = await start_server(service, max_batch=8, max_delay=0.5)
        try:
            async def one(index: int) -> float:
                conn = await Connection.open(server.port)
                try:
                    row = protocol.boxes_to_rows(queries[index:index + 1])[0]
                    reply = await conn.round_trip(
                        {"op": "estimate", "name": "ranges", "query": row})
                    assert reply["ok"], reply
                    return reply["estimate"]
                finally:
                    await conn.close()

            return await asyncio.gather(*(one(i) for i in range(32)))
        finally:
            await server.close()

    got = asyncio.run(main())
    assert got == expected  # bit-identical to the scalar service path
    assert len(calls) <= 4  # ceil(32 / 8)
    assert sum(calls) == 32
    assert service.stats.coalesced_queries == 32
    assert service.stats.batch_estimates - before == len(calls)


def test_pipelined_connection_keeps_reply_order():
    service = make_service()
    queries = synthetic_queries(DOMAIN, 12, seed=3)
    rows = protocol.boxes_to_rows(queries)

    async def main():
        server = await start_server(service, max_batch=4, max_delay=0.01)
        try:
            conn = await Connection.open(server.port)
            for index, row in enumerate(rows):
                await conn.send({"op": "estimate", "name": "ranges",
                                 "query": row, "id": index})
            replies = [await conn.recv() for _ in rows]
            await conn.close()
            return replies
        finally:
            await server.close()

    replies = asyncio.run(main())
    assert [r["id"] for r in replies] == list(range(12))
    expected = [service.estimate("ranges", queries[i]).estimate
                for i in range(12)]
    assert [r["estimate"] for r in replies] == expected


def test_mixed_estimator_requests_coalesce_across_families():
    """Satellite: N requests over K estimators -> fewer than K dispatches.

    The shared request bucket batches *across* estimators: a mixed workload
    of range + join requests dispatches as one ``answer_multi`` engine
    call (not one batch per estimator), and every reply stays bit-identical
    to its scalar estimate.
    """
    service = make_service()
    queries = synthetic_queries(DOMAIN, 16, seed=9)
    expected_range = [service.estimate("ranges", queries[i]).estimate
                      for i in range(16)]
    expected_join = service.estimate("join").estimate
    before = service.stats.batch_estimates

    dispatches = []
    inner = service.answer_multi

    def counting(requests, **kwargs):
        dispatches.append([name for name, _ in requests])
        return inner(requests, **kwargs)

    service.answer_multi = counting

    async def main():
        # One big batch window so the whole mixed burst coalesces together.
        server = await start_server(service, max_batch=64, max_delay=0.05)
        try:
            conn = await Connection.open(server.port)
            rows = protocol.boxes_to_rows(queries)
            for index, row in enumerate(rows):
                await conn.send({"op": "estimate", "name": "ranges",
                                 "query": row, "id": 2 * index})
                await conn.send({"op": "estimate", "name": "join",
                                 "id": 2 * index + 1})
            replies = [await conn.recv() for _ in range(32)]
            await conn.close()
            return replies
        finally:
            await server.close()

    replies = asyncio.run(main())
    assert all(reply["ok"] for reply in replies)
    assert [reply["id"] for reply in replies] == list(range(32))
    for index, reply in enumerate(replies):
        if reply["name"] == "ranges":
            assert reply["estimate"] == expected_range[index // 2]
        else:
            assert reply["estimate"] == expected_join
    # 32 requests over 2 estimators: strictly fewer engine dispatches than
    # estimators x batches — the whole mixed burst rides one dispatch.
    assert len(dispatches) == 1
    assert set(dispatches[0]) == {"ranges", "join"}
    stats = service.stats
    assert stats.batch_estimates - before == 1
    assert stats.coalesced_queries == 32


def test_mixed_bucket_isolates_failures_per_estimator():
    """A bad request for one estimator must not poison the shared bucket."""
    service = make_service()
    service.register("empty", family="rectangle", domain=DOMAIN,
                     num_instances=8, seed=99)  # registered, never ingested
    queries = synthetic_queries(DOMAIN, 4, seed=5)
    expected = [service.estimate("ranges", queries[i]).estimate
                for i in range(4)]

    async def main():
        server = await start_server(service, max_batch=64, max_delay=0.05)
        try:
            conn = await Connection.open(server.port)
            for index, row in enumerate(protocol.boxes_to_rows(queries)):
                await conn.send({"op": "estimate", "name": "ranges",
                                 "query": row, "id": 2 * index})
                await conn.send({"op": "estimate", "name": "empty",
                                 "id": 2 * index + 1})
            replies = [await conn.recv() for _ in range(8)]
            await conn.close()
            return replies
        finally:
            await server.close()

    replies = asyncio.run(main())
    good = [r for r in replies if r["id"] % 2 == 0]
    bad = [r for r in replies if r["id"] % 2 == 1]
    assert all(r["ok"] for r in good), good
    assert [r["estimate"] for r in good] == expected
    assert all(not r["ok"] for r in bad)
    assert all("EstimationError" in r["error"] for r in bad)


def test_one_bad_query_fails_alone_among_its_estimators_batch():
    """Two connections, one name, one dispatch: the out-of-domain rectangle
    gets its typed error, the other connection its bit-identical answers,
    and the whole burst costs one executor run (no re-dispatch)."""
    service = make_service()
    queries = synthetic_queries(DOMAIN, 4, seed=5)
    expected = [service.estimate("ranges", queries[i]).estimate
                for i in range(4)]
    runs = service.program_executor.stats.runs
    batch_estimates = service.stats.batch_estimates
    dispatched = []
    inner = service.answer_multi

    def counting(requests):
        dispatched.append(len(requests))
        return inner(requests)

    service.answer_multi = counting

    async def main():
        server = await start_server(service, max_batch=64, max_delay=0.05)
        try:
            good = await Connection.open(server.port)
            bad = await Connection.open(server.port)
            rows = protocol.boxes_to_rows(queries)
            for index in (0, 1):
                await good.send({"op": "estimate", "name": "ranges",
                                 "query": rows[index], "id": index})
            await bad.send({"op": "estimate", "name": "ranges",
                            "query": [0, 0, 999, 999], "id": "bad"})
            for index in (2, 3):
                await good.send({"op": "estimate", "name": "ranges",
                                 "query": rows[index], "id": index})
            replies = [await good.recv() for _ in range(4)]
            refused = await bad.recv()
            await good.close()
            await bad.close()
            return replies, refused
        finally:
            await server.close()

    replies, refused = asyncio.run(main())
    assert dispatched == [5]                   # all five rode one dispatch
    assert service.program_executor.stats.runs == runs + 1
    assert service.stats.batch_estimates == batch_estimates + 1
    assert all(reply["ok"] for reply in replies), replies
    assert [reply["estimate"] for reply in replies] == expected
    assert not refused["ok"] and refused["id"] == "bad"
    assert refused["error_code"] == "bad_request"
    assert "outside the domain" in refused["error"]


def test_mixed_coalescing_reports_per_estimator_metrics():
    """Satellite: metrics verb exposes per-estimator coalesce factors and
    the cross-estimator dispatch count."""
    service = make_service()
    queries = synthetic_queries(DOMAIN, 8, seed=3)

    async def main():
        server = await start_server(service, max_batch=64, max_delay=0.05)
        try:
            conn = await Connection.open(server.port)
            for index, row in enumerate(protocol.boxes_to_rows(queries)):
                await conn.send({"op": "estimate", "name": "ranges",
                                 "query": row})
                await conn.send({"op": "estimate", "name": "join"})
            for _ in range(16):
                await conn.recv()
            metrics = await conn.round_trip({"op": "metrics"})
            stats = await conn.round_trip({"op": "stats"})
            await conn.close()
            return metrics["text"], stats
        finally:
            await server.close()

    text, stats = asyncio.run(main())
    assert "repro_server_coalesce_cross_estimator_dispatches_total 1" in text
    assert 'repro_server_estimator_coalesce_factor{name="ranges"} 8.000' in text
    assert 'repro_server_estimator_coalesce_factor{name="join"} 8.000' in text
    assert 'repro_server_estimator_coalesced_queries_total{name="ranges"} 8' \
        in text
    assert stats["server"]["cross_estimator_dispatches"] == 1


def test_queryless_family_estimates_coalesce():
    service = make_service()
    expected = service.estimate("join").estimate

    async def main():
        server = await start_server(service, max_batch=8, max_delay=0.01)
        try:
            conn = await Connection.open(server.port)
            for index in range(6):
                await conn.send({"op": "estimate", "name": "join", "id": index})
            replies = [await conn.recv() for _ in range(6)]
            await conn.close()
            return replies
        finally:
            await server.close()

    replies = asyncio.run(main())
    assert all(r["ok"] for r in replies)
    assert {r["estimate"] for r in replies} == {expected}


def test_overload_returns_structured_errors_and_never_hangs():
    """Acceptance: a full admission queue answers `overloaded`, not a stall."""
    service = make_service()
    queries = synthetic_queries(DOMAIN, 40, seed=11)
    rows = protocol.boxes_to_rows(queries)
    release = threading.Event()
    inner = service.answer_multi

    def blocking(requests):
        assert release.wait(timeout=30), "test deadlock: release never set"
        return inner(requests)

    service.answer_multi = blocking

    async def main():
        server = await start_server(service, max_batch=4, max_delay=0.001,
                                    max_queue=8)
        try:
            conn = await Connection.open(server.port)
            for index, row in enumerate(rows):
                await conn.send({"op": "estimate", "name": "ranges",
                                 "query": row, "id": index})
            # Give the rejections a moment to be generated while the
            # admitted batches are still blocked inside the engine call.
            await asyncio.sleep(0.1)
            release.set()
            replies = [await conn.recv() for _ in rows]
            await conn.close()
            return replies
        finally:
            release.set()
            await server.close()

    replies = asyncio.run(main())
    assert len(replies) == 40
    rejected = [r for r in replies if not r["ok"]]
    accepted = [r for r in replies if r["ok"]]
    assert rejected, "expected overload rejections with max_queue=8"
    assert all(r["error_code"] == "overloaded" for r in rejected)
    assert all("estimate" in r for r in accepted)
    # Replies stay in request order even when some are shed.
    assert [r["id"] for r in replies] == list(range(40))


def test_reload_hot_swaps_snapshot_without_dropping_connection(tmp_path):
    """Acceptance: `reload` swaps in a v2 binary snapshot on a live conn."""
    before = make_service(data=200)
    after = make_service(data=200)
    after.ingest("ranges", synthetic_boxes(DOMAIN, 600, seed=42), side="data")
    after.flush()
    snapshot = tmp_path / "after.sketch"
    after.save(snapshot)

    query = synthetic_queries(DOMAIN, 1, seed=13)
    row = protocol.boxes_to_rows(query)[0]
    expect_before = before.estimate("ranges", query).estimate
    expect_after = after.estimate("ranges", query).estimate
    assert expect_before != expect_after

    async def main():
        server = await start_server(before, max_batch=4, max_delay=0.001)
        try:
            conn = await Connection.open(server.port)
            first = await conn.round_trip(
                {"op": "estimate", "name": "ranges", "query": row})
            reload_reply = await conn.round_trip(
                {"op": "reload", "path": str(snapshot)})
            second = await conn.round_trip(
                {"op": "estimate", "name": "ranges", "query": row})
            stats = await conn.round_trip({"op": "stats"})
            await conn.close()
            return first, reload_reply, second, stats
        finally:
            await server.close()

    first, reload_reply, second, stats = asyncio.run(main())
    assert first["ok"] and first["estimate"] == expect_before
    assert reload_reply["ok"]
    assert sorted(reload_reply["estimators"]) == ["join", "ranges"]
    assert second["ok"] and second["estimate"] == expect_after
    assert stats["server"]["reloads"] == 1


def test_protocol_errors_keep_connection_alive():
    service = make_service()

    async def main():
        server = await start_server(service)
        try:
            conn = await Connection.open(server.port)
            conn.writer.write(b"this is not json\n")
            bad_json = await conn.recv()
            unknown_op = await conn.round_trip({"op": "frobnicate"})
            bad_name = await conn.round_trip(
                {"op": "estimate", "name": "missing", "query": [0, 0, 1, 1]})
            missing_query = await conn.round_trip(
                {"op": "estimate", "name": "ranges"})
            still_alive = await conn.round_trip({"op": "ping"})
            quit_reply = await conn.round_trip({"op": "quit"})
            eof = await asyncio.wait_for(conn.reader.readline(), timeout=30)
            return bad_json, unknown_op, bad_name, missing_query, \
                still_alive, quit_reply, eof
        finally:
            await server.close()

    bad_json, unknown_op, bad_name, missing_query, alive, quit_reply, eof = \
        asyncio.run(main())
    assert bad_json["error_code"] == "protocol"
    assert unknown_op["error_code"] == "unknown_op"
    assert bad_name["error_code"] == "bad_request"
    assert "ServiceError" in bad_name["error"]
    assert missing_query["error_code"] == "bad_request"
    assert alive["ok"] and alive["version"] == protocol.PROTOCOL_VERSION
    assert quit_reply["ok"]
    assert eof == b""  # quit closes the connection server-side


def test_ingest_register_snapshot_and_metrics_ops(tmp_path):
    snapshot = tmp_path / "svc.sketch"

    async def main():
        server = await start_server(EstimationService(num_shards=2))
        try:
            conn = await Connection.open(server.port)
            registered = await conn.round_trip(
                {"op": "register", "name": "rq", "family": "range",
                 "sizes": [64, 64], "instances": 8, "seed": 3})
            ingested = await conn.round_trip(
                {"op": "ingest", "name": "rq", "side": "data",
                 "boxes": [[0, 0, 9, 9], [5, 5, 20, 20], [1, 2, 3, 4]]})
            flushed = await conn.round_trip({"op": "flush"})
            estimate = await conn.round_trip(
                {"op": "estimate", "name": "rq", "query": [0, 0, 63, 63]})
            saved = await conn.round_trip(
                {"op": "snapshot", "path": str(snapshot)})
            metrics = await conn.round_trip({"op": "metrics"})
            await conn.close()
            return registered, ingested, flushed, estimate, saved, metrics
        finally:
            await server.close()

    registered, ingested, flushed, estimate, saved, metrics = asyncio.run(main())
    assert registered["ok"] and registered["spec"]["family"] == "range"
    assert ingested["ok"] and ingested["boxes"] == 3
    assert flushed["ok"]
    assert estimate["ok"] and estimate["left_count"] == 3
    assert saved["ok"]
    restored = EstimationService.load(snapshot)
    assert restored.merged_view("rq").count == 3
    text = metrics["text"]
    assert "repro_server_requests_total{op=\"estimate\"} 1" in text
    assert "repro_server_estimate_latency_ms" in text
    assert "repro_server_coalesce_factor" in text
    assert "repro_service_cache_hit_rate" in text


def test_oversized_frame_is_rejected():
    service = make_service()

    async def main():
        server = await start_server(service, max_line_bytes=4096)
        try:
            conn = await Connection.open(server.port)
            conn.writer.write(b"x" * 8192 + b"\n")
            reply = await conn.recv()
            eof = await asyncio.wait_for(conn.reader.readline(), timeout=30)
            await conn.close()
            return reply, eof
        finally:
            await server.close()

    reply, eof = asyncio.run(main())
    assert not reply["ok"] and reply["error_code"] == "frame_too_large"
    assert eof == b""  # NDJSON framing is unrecoverable: server hangs up


class TestCoalescerUnit:
    def test_burst_larger_than_max_batch_drains_leftovers(self):
        service = make_service()
        queries = synthetic_queries(DOMAIN, 11, seed=21)

        async def main():
            coalescer = EstimateCoalescer(lambda: service, max_batch=4,
                                          max_delay=0.05)
            futures = [coalescer.submit("ranges", queries[i:i + 1])
                       for i in range(11)]
            results = await asyncio.gather(*futures)
            await coalescer.drain()
            return results, coalescer.stats

        results, stats = asyncio.run(main())
        expected = [service.estimate("ranges", queries[i]).estimate
                    for i in range(11)]
        assert [r.estimate for r in results] == expected
        assert stats.batches == 3  # 4 + 4 + 3
        assert stats.batched_queries == 11
        assert stats.largest_batch == 4

    def test_engine_failure_propagates_to_every_future(self):
        service = make_service()

        def boom(requests):
            raise ServiceError("engine exploded")

        service.answer_multi = boom

        async def main():
            coalescer = EstimateCoalescer(lambda: service, max_batch=4,
                                          max_delay=0.001)
            futures = [coalescer.submit("ranges",
                                        synthetic_queries(DOMAIN, 1, seed=i))
                       for i in range(3)]
            done = await asyncio.gather(*futures, return_exceptions=True)
            await coalescer.drain()
            return done

        done = asyncio.run(main())
        assert len(done) == 3
        assert all(isinstance(item, ServiceError) for item in done)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ServiceError):
            EstimateCoalescer(lambda: None, max_batch=0)
        with pytest.raises(ServiceError):
            EstimateCoalescer(lambda: None, max_queue=0)
        with pytest.raises(ServiceError):
            ServerConfig(max_batch=0)


def test_estimate_qps_not_capped_by_sample_window():
    """A busy server reports its true rate, not samples/window."""
    from repro.server.metrics import SAMPLE_WINDOW, ServerMetrics

    metrics = ServerMetrics()
    metrics.started_at -= 100.0        # long-lived server...
    for _ in range(SAMPLE_WINDOW):     # ...whose sample deque wrapped just now
        metrics.record_estimate_latency(0.001)
    # All retained samples are microseconds old; the horizon must clamp
    # to the retained span, not report SAMPLE_WINDOW / 30s.
    assert metrics.estimate_qps() > SAMPLE_WINDOW / 30.0 * 10


class TestProtocolUnit:
    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"nonsense\n")
        with pytest.raises(ProtocolError):
            protocol.decode(b"\xff\xfe\n")

    def test_rows_round_trip(self):
        boxes = synthetic_boxes(DOMAIN, 5, seed=1)
        rows = protocol.boxes_to_rows(boxes)
        back = protocol.boxes_from_rows(rows, dimension=2)
        assert protocol.boxes_to_rows(back) == rows

    def test_register_carries_max_levels_only_when_set(self):
        plain = protocol.build("register", name="rq", family="range",
                               sizes=[256, 256], seed=3, max_levels=None)
        assert "max_levels" not in plain       # old frames, byte for byte
        # ... which ask for the derived caps, written into the spec.
        assert protocol.read("register", plain)["spec"].max_levels == (5, 5)
        full = protocol.read("register", {**plain, "max_levels": [8, 8]})
        assert full["spec"].domain().signature() == Domain(
            (256, 256)).signature()            # the height means uncapped
        capped = protocol.build("register", name="rq", family="range",
                                sizes=[256, 256], seed=3,
                                max_levels=[4, None])
        assert protocol.decode(protocol.encode(capped))["max_levels"] == [
            4, None]
        spec = protocol.read("register", capped)["spec"]
        assert spec.max_levels == (4, None)
        assert spec.domain().dyadic(0).max_level == 4
        with pytest.raises(ServiceError, match="max_levels must match"):
            protocol.read("register", {**capped, "max_levels": [4]})

    def test_raise_for_response_maps_error_codes(self):
        from repro.errors import OverloadedError, ServerError

        with pytest.raises(OverloadedError):
            protocol.raise_for_response(
                {"ok": False, "error": "x", "error_code": "overloaded"})
        with pytest.raises(ServerError) as info:
            protocol.raise_for_response(
                {"ok": False, "error": "x", "error_code": "bad_request"})
        assert info.value.code == "bad_request"
        assert protocol.raise_for_response({"ok": True, "op": "ping"})["ok"]


class TestWriteGate:
    """Writes share the gate; a hold waits for the writes in flight, and
    writes that arrive while it is held wait for its release."""

    @staticmethod
    def _run(steps):
        async def main():
            gate, log = WriteGate(), []
            await steps(gate, log)
            return log

        return asyncio.run(main())

    def test_a_write_waits_while_the_gate_is_held(self):
        async def steps(gate, log):
            async def write():
                async with gate.write():
                    log.append("write")

            async with gate.hold():
                task = asyncio.create_task(write())
                for _ in range(3):
                    await asyncio.sleep(0)
                log.append("held")
            await task

        assert self._run(steps) == ["held", "write"]

    def test_a_hold_waits_for_the_writes_in_flight(self):
        async def steps(gate, log):
            release = asyncio.Event()

            async def write():
                async with gate.write():
                    log.append("write starts")
                    await release.wait()
                    log.append("write ends")

            async def hold():
                async with gate.hold():
                    log.append("held")

            writing = asyncio.create_task(write())
            await asyncio.sleep(0)
            holding = asyncio.create_task(hold())
            for _ in range(3):
                await asyncio.sleep(0)
            release.set()
            await asyncio.gather(writing, holding)

        assert self._run(steps) == ["write starts", "write ends", "held"]

    def test_holds_take_turns(self):
        async def steps(gate, log):
            async def hold(name):
                async with gate.hold():
                    log.append(f"{name} in")
                    await asyncio.sleep(0)
                    log.append(f"{name} out")

            await asyncio.gather(hold("a"), hold("b"))

        assert self._run(steps) == ["a in", "a out", "b in", "b out"]

    @pytest.mark.parametrize("side", ["write", "hold"])
    def test_a_failure_inside_releases_the_gate(self, side):
        async def steps(gate, log):
            with pytest.raises(RuntimeError):
                async with getattr(gate, side)():
                    raise RuntimeError("the step failed")
            async with gate.hold():
                log.append("held")
            async with gate.write():
                log.append("written")

        assert self._run(steps) == ["held", "written"]

