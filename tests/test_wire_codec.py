"""Tests of the binary wire format: codec, self-describing frames, mixing.

Three layers are pinned here:

* the frame codec itself — binary round-trips decode to the same payloads
  the NDJSON path produces (property-based over box batches), and a frame
  truncated or corrupted at *any* byte offset is rejected with a typed
  error instead of garbage;
* self-describing frames — the first byte of each frame picks its format,
  each reply comes back in its request's format, and the structured
  ``frame_too_large`` error keeps a binary connection usable in both
  directions;
* mixed-format serving — a binary client and an NDJSON client against one
  server see bit-identical estimates and byte-identical snapshots.
"""

import asyncio
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import listening_socket
from repro.client import ServiceClient
from repro.cluster import ClusterRouter, RouterConfig
from repro.core.domain import Domain
from repro.errors import (
    ConnectionLostError,
    FrameTooLargeError,
    ProtocolError,
    ServerError,
)
from repro.server import protocol, wire
from repro.server.runner import ThreadedServer
from repro.server.server import ServerConfig
from repro.service import EstimationService, synthetic_boxes

DOMAIN = Domain.square(256, dimension=2)


def make_service(*, data: int = 300) -> EstimationService:
    service = EstimationService(num_shards=2)
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=32, seed=5)
    service.ingest("ranges", synthetic_boxes(DOMAIN, data, seed=1),
                   side="data")
    service.flush()
    return service


def decode_frame_bytes(frame: bytes) -> dict:
    """Decode one complete binary frame from its raw bytes."""
    return wire.read_binary_frame_sync(io.BytesIO(frame))


# -- codec round-trips --------------------------------------------------------------


def test_plain_payload_round_trips():
    payload = {"op": "ping", "ok": True, "nested": {"a": [1, 2.5, None, "x"]}}
    assert decode_frame_bytes(wire.encode_binary(payload)) == payload


def test_tensor_and_bytes_sections_round_trip():
    payload = {
        "op": "estimate",
        "boxes": np.arange(12, dtype=np.int64).reshape(3, 4),
        "state": {"counters": np.linspace(0.0, 1.0, 6).reshape(2, 3),
                  "xi": np.arange(8, dtype=np.uint64).reshape(2, 4)},
        "blobs": [b"raw-bytes", {"inner": b"\x00\xff" * 10}],
    }
    decoded = decode_frame_bytes(wire.encode_binary(payload))
    assert np.array_equal(decoded["boxes"], payload["boxes"])
    assert decoded["boxes"].dtype == np.int64
    assert np.array_equal(decoded["state"]["counters"],
                          payload["state"]["counters"])
    assert np.array_equal(decoded["state"]["xi"], payload["state"]["xi"])
    assert decoded["state"]["xi"].dtype == np.uint64
    assert decoded["blobs"][0] == b"raw-bytes"
    assert decoded["blobs"][1]["inner"] == b"\x00\xff" * 10
    # Tensors decode as zero-copy views over the receive buffer.
    assert not decoded["boxes"].flags.writeable


def test_exotic_dtypes_fall_back_to_json_lists():
    payload = {"op": "x", "small": np.arange(4, dtype=np.int32),
               "flags": np.array([True, False])}
    decoded = decode_frame_bytes(wire.encode_binary(payload))
    assert decoded["small"] == [0, 1, 2, 3]
    assert decoded["flags"] == [True, False]


def test_ndjson_encoder_renders_tensors_and_bytes():
    """json_default keeps NDJSON usable for the same mode-agnostic payloads."""
    payload = {"rows": np.arange(4, dtype=np.int64).reshape(2, 2),
               "blob": b"abc", "n": np.int64(7), "f": np.float64(0.5)}
    decoded = protocol.decode(protocol.encode(payload))
    assert decoded["rows"] == [[0, 1], [2, 3]]
    assert protocol.unpack_bytes(decoded["blob"]) == b"abc"
    assert decoded["n"] == 7 and decoded["f"] == 0.5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255),
                          st.integers(0, 255), st.integers(0, 255)),
                min_size=1, max_size=40))
def test_binary_boxes_decode_identically_to_ndjson(rows):
    """Property: for any box batch, both wire formats yield the same BoxSet."""
    rows = [[min(a, c), min(b, d), max(a, c), max(b, d)]
            for a, b, c, d in rows]
    tensor = np.asarray(rows, dtype=np.int64)
    binary_request = decode_frame_bytes(wire.encode_binary(
        {"op": "ingest", "boxes": tensor}))
    ndjson_request = protocol.decode(protocol.encode(
        {"op": "ingest", "boxes": rows}))
    from_binary = protocol.boxes_from_rows(binary_request["boxes"], 2)
    from_ndjson = protocol.boxes_from_rows(ndjson_request["boxes"], 2)
    assert np.array_equal(from_binary.lows, from_ndjson.lows)
    assert np.array_equal(from_binary.highs, from_ndjson.highs)


# -- rejection of damaged frames ----------------------------------------------------


def reference_frame() -> bytes:
    return wire.encode_binary({
        "op": "ingest", "name": "ranges",
        "boxes": np.arange(8, dtype=np.int64).reshape(2, 4),
        "blob": b"0123456789",
    })


def test_truncated_frame_rejected_at_every_offset():
    frame = reference_frame()
    for cut in range(len(frame)):
        stream = io.BytesIO(frame[:cut])
        with pytest.raises((ProtocolError, ConnectionLostError)):
            wire.read_binary_frame_sync(stream)


def test_bad_magic_loses_framing():
    frame = bytearray(reference_frame())
    frame[0:4] = b"XXXX"
    with pytest.raises(wire.FramingLostError):
        decode_frame_bytes(bytes(frame))


def test_corrupt_descriptors_rejected():
    base = {"op": "x", "t": np.arange(4, dtype=np.int64)}
    frame = wire.encode_binary(base)
    prefix = frame[:wire.PREFIX_SIZE]
    header_len = int.from_bytes(prefix[4:8], "little")
    header = frame[wire.PREFIX_SIZE:wire.PREFIX_SIZE + header_len]
    body = frame[wire.PREFIX_SIZE + header_len:]

    def rebuilt(header_bytes: bytes, body_bytes: bytes) -> bytes:
        return (wire.FRAME_PREFIX.pack(wire.MAGIC, len(header_bytes),
                                       len(body_bytes))
                + header_bytes + body_bytes)

    # Unsupported dtype kind.
    bad = header.replace(b'"<i8"', b'"<i4"')
    with pytest.raises(ProtocolError):
        decode_frame_bytes(rebuilt(bad, body))
    # Shape larger than the body.
    bad = header.replace(b"[4]", b"[400]")
    with pytest.raises(ProtocolError):
        decode_frame_bytes(rebuilt(bad, body))
    # Negative extent.
    bad = header.replace(b"[4]", b"[-4]")
    with pytest.raises(ProtocolError):
        decode_frame_bytes(rebuilt(bad, body))
    # Path that does not exist in the payload tree.
    bad = header.replace(b'[["t"]', b'[["missing","deep"]')
    with pytest.raises(ProtocolError):
        decode_frame_bytes(rebuilt(bad, body))
    # Undeclared trailing body bytes.
    with pytest.raises(ProtocolError):
        decode_frame_bytes(rebuilt(header, body + b"extra"))


def _frame(header, body: bytes = b"") -> bytes:
    """A binary frame around any JSON header and body bytes."""
    raw = json.dumps(header).encode("utf-8")
    return (wire.FRAME_PREFIX.pack(wire.MAGIC, len(raw), len(body))
            + raw + body)


#: Body descriptors whose length or shape is not non-negative integers.
MALFORMED_DESCRIPTORS = [
    ([["x"], "raw", "abc"], b""),
    ([["x"], "raw", "1"], b"a"),
    ([["x"], "raw", None], b""),
    ([["x"], "raw", [1]], b"a"),
    ([["x"], "raw", {"n": 1}], b"a"),
    ([["x"], "raw", True], b"a"),
    ([["x"], "raw", 1.5], b"a"),
    ([["x"], "raw", -1], b""),
    ([["x"], "<i8", None], b""),
    ([["x"], "<i8", "8"], bytes(8)),
    ([["x"], "<i8", {"0": 1}], bytes(8)),
    ([["x"], "<i8", [True]], bytes(8)),
    ([["x"], "<i8", [1.0]], bytes(8)),
    ([["x"], "<i8", ["1"]], bytes(8)),
    ([["x"], "<i8", [0, 2 ** 70]], b""),
]


@pytest.mark.parametrize("descriptor, body", MALFORMED_DESCRIPTORS,
                         ids=[repr(case[0][2]) + "-" + case[0][1]
                              for case in MALFORMED_DESCRIPTORS])
def test_a_malformed_length_or_shape_is_a_protocol_error(descriptor, body):
    frame = _frame({"op": "ping", wire.BODY_KEY: [descriptor]}, body)
    with pytest.raises(ProtocolError) as excinfo:
        decode_frame_bytes(frame)
    assert not isinstance(excinfo.value, wire.FramingLostError)


def test_a_malformed_descriptor_is_answered_and_the_connection_kept():
    """The server answers the bad frame with a ``protocol`` error and goes
    on reading: the ``ping`` behind it on the same connection is answered."""
    bad = _frame({"op": "ping", "id": 1,
                  wire.BODY_KEY: [[["x"], "raw", "abc"]]})
    with ThreadedServer(make_service()) as server:
        answers = _exchange(server.port, bad + protocol.encode(
            {"op": "ping", "id": 2}), 2)
    (mode, refused), (_, pong) = answers
    assert mode == "binary"
    assert not refused["ok"] and refused["error_code"] == "protocol"
    assert pong["ok"] and pong["id"] == 2


def test_a_line_nested_too_deep_is_answered_and_the_connection_kept():
    with ThreadedServer(make_service()) as server:
        answers = _exchange(server.port, b"[" * 100_000 + b"\n"
                            + protocol.encode({"op": "ping", "id": 2}), 2)
    (_, refused), (_, pong) = answers
    assert not refused["ok"] and refused["error_code"] == "protocol"
    assert pong["ok"] and pong["id"] == 2


def _declared(body_len: int) -> bytes:
    """A frame prefix declaring an empty header and ``body_len`` body bytes."""
    return wire.FRAME_PREFIX.pack(wire.MAGIC, 0, body_len)


def test_oversized_declared_frame_is_drained_typed_and_recoverable():
    limit = protocol.MAX_LINE_BYTES
    follower = wire.encode_binary({"op": "ping"})
    stream = io.BytesIO(_declared(limit) + bytes(limit) + follower)
    with pytest.raises(FrameTooLargeError) as excinfo:
        wire.read_binary_frame_sync(stream)
    assert excinfo.value.code == "frame_too_large"
    assert excinfo.value.recoverable
    # The oversized frame was drained: the next frame reads intact.
    assert wire.read_binary_frame_sync(stream) == {"op": "ping"}


def test_frame_beyond_the_drain_limit_loses_framing():
    with pytest.raises(wire.FramingLostError, match="too large to drain"):
        wire.read_binary_frame_sync(io.BytesIO(
            _declared(4 * protocol.MAX_LINE_BYTES)))


# -- self-describing frames ---------------------------------------------------------


def test_client_wire_modes():
    service = make_service()
    with ThreadedServer(service) as server:
        for mode in ("ndjson", "binary"):
            with ServiceClient("127.0.0.1", server.port, wire=mode) as client:
                assert client.wire == mode and client.ping()["ok"]
        with ServiceClient("127.0.0.1", server.port) as default:
            assert default.wire == "binary" and default.ping()["ok"]
    for mode in ("msgpack", "auto"):
        with pytest.raises(ProtocolError):
            ServiceClient("127.0.0.1", 1, wire=mode)


def _exchange(port: int, data: bytes, replies: int) -> list[tuple[str, dict]]:
    """Write ``data`` in one go; read ``replies`` replies, each with the
    format it came back in."""

    async def main():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(data)
        await writer.drain()
        answered = []
        for _ in range(replies):
            lead = await asyncio.wait_for(reader.readexactly(1), timeout=30)
            if lead == wire.BINARY_LEAD:
                reply, _ = await wire.read_binary_frame(
                    reader, protocol.MAX_LINE_BYTES, lead)
                answered.append(("binary", reply))
            else:
                line = lead + await reader.readline()
                answered.append(("ndjson", protocol.decode(line)))
        writer.close()
        return answered

    return asyncio.run(main())


def test_a_first_binary_frame_is_answered_in_binary():
    with ThreadedServer(make_service()) as server:
        (answer,) = _exchange(server.port, wire.encode_binary(
            {"op": "ping", "id": 1}), 1)
    assert answer == ("binary", {"ok": True, "op": "ping", "id": 1,
                                 "version": protocol.PROTOCOL_VERSION})


def test_mixed_frames_in_one_write_get_in_order_replies_in_kind():
    frames = (protocol.encode({"op": "ping", "id": 1})
              + wire.encode_binary({"op": "estimate", "name": "ranges",
                                    "query": [0, 0, 90, 90], "id": 2})
              + protocol.encode({"op": "ping", "id": 3}))
    with ThreadedServer(make_service()) as server:
        answers = _exchange(server.port, frames, 3)
        with ServiceClient("127.0.0.1", server.port) as client:
            expected = client.estimate("ranges", [0, 0, 90, 90]).estimate
    assert [(mode, reply["id"]) for mode, reply in answers] == [
        ("ndjson", 1), ("binary", 2), ("ndjson", 3)]
    assert all(reply["ok"] for _, reply in answers)
    assert answers[1][1]["estimate"] == expected


def test_hello_is_an_unknown_op():
    with ThreadedServer(make_service()) as server:
        (answer,) = _exchange(server.port, protocol.encode(
            {"op": "hello", "wire": "binary"}), 1)
    mode, reply = answer
    assert mode == "ndjson"
    assert not reply["ok"] and reply["error_code"] == "unknown_op"


def test_a_binary_session_puts_no_bytes_on_the_ndjson_counters():
    with ThreadedServer(make_service()) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.ping()
            formats = client.stats()["server"]["wire"]
    assert formats["ndjson"] == dict.fromkeys(formats["ndjson"], 0)
    assert formats["binary"]["frames_in"] == 2


# -- mixed-format serving -----------------------------------------------------------


def test_mixed_format_clients_bit_identical():
    service = make_service()
    rng = np.random.default_rng(11)
    lows = rng.integers(0, 200, (500, 2))
    highs = lows + rng.integers(0, 56, (500, 2))
    rows = np.hstack([lows, highs])
    queries = [[0, 0, 200, 200], [10, 10, 90, 90]]
    with ThreadedServer(service) as server:
        with ServiceClient("127.0.0.1", server.port, wire="binary") as fast, \
                ServiceClient("127.0.0.1", server.port, wire="ndjson") as plain:
            fast.ingest("ranges", rows.tolist(), side="data")
            fast.flush()
            for query in queries:
                assert fast.estimate("ranges", query) == \
                    plain.estimate("ranges", query)
            # Pipelined batches agree too.
            boxes = [[0, 0, 128, 128], [5, 5, 250, 250]]
            assert fast.estimate_many("ranges", boxes) == \
                plain.estimate_many("ranges", boxes)


def test_binary_snapshot_fetch_is_raw_bytes():
    import base64

    service = make_service()
    with ThreadedServer(service) as server:
        with ServiceClient("127.0.0.1", server.port, wire="binary") as fast, \
                ServiceClient("127.0.0.1", server.port, wire="ndjson") as plain:
            raw = fast.request({"op": "snapshot", "fetch": True})["data"]
            encoded = plain.request({"op": "snapshot", "fetch": True})["data"]
            assert isinstance(raw, bytes) and isinstance(encoded, str)
            assert raw == base64.b64decode(encoded)


def test_wire_metrics_and_stats_exposed():
    service = make_service()
    with ThreadedServer(service) as server:
        with ServiceClient("127.0.0.1", server.port, wire="binary") as fast:
            fast.ping()
            stats = fast.stats()
            formats = stats["server"]["wire"]
            assert {"ndjson", "binary"} <= set(formats)
            for counters in formats.values():
                assert set(counters) == {"frames_in", "bytes_in",
                                         "frames_out", "bytes_out"}
            text = fast.metrics()
            assert 'repro_server_wire_frames_total{format="binary",' \
                   'direction="in"}' in text
            assert 'repro_server_wire_bytes_total{format="ndjson",' \
                   'direction="out"}' in text


def test_ingest_ships_tensor_and_ragged_rows_still_rejected():
    service = make_service()
    with ThreadedServer(service) as server:
        with ServiceClient("127.0.0.1", server.port, wire="binary") as fast:
            fast.ingest("ranges", [[0, 0, 10, 10], [1, 1, 5, 5]], side="data")
            with pytest.raises(ServerError):
                fast.ingest("ranges", [[0, 0, 10, 10], [1, 1]], side="data")


# -- frame_too_large over live connections ------------------------------------------


def _oversized_reply_server() -> ThreadedServer:
    """A server whose ``snapshot fetch`` reply (four 4096-instance names,
    one ~8.4 MB state each: ~34 MB) is over a reader's default 16 MiB frame
    bound but within its drain limit."""
    service = EstimationService(num_shards=1)
    boxes = synthetic_boxes(Domain.square(1024, dimension=2), 200, seed=1)
    for index in range(4):
        service.register(f"big{index}", family="range", domain=(1024, 1024),
                         num_instances=4096)
        service.ingest(f"big{index}", boxes, side="data")
    service.flush()
    return ThreadedServer(service, config=ServerConfig(
        port=0, max_line_bytes=1 << 27))


def test_an_oversized_reply_keeps_the_client_connection():
    with _oversized_reply_server() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(FrameTooLargeError, match="exceeds"):
                client.request({"op": "snapshot", "fetch": True})
            assert client.ping()["ok"]
            assert client.reconnects == 0


def test_an_oversized_reply_fails_one_worker_link_request_only():
    async def main(port: int):
        router = ClusterRouter(config=RouterConfig(port=0))
        try:
            info = await router.attach("w0", "127.0.0.1", port)
            with pytest.raises(FrameTooLargeError):
                await router.manager.fetch_snapshot("w0")
            assert info.link.connected
            return await info.link.request_ok({"op": "ping"})
        finally:
            await router.close()

    with _oversized_reply_server() as server:
        assert asyncio.run(main(server.port))["ok"]


def test_oversized_binary_frame_keeps_connection_usable():
    service = make_service()
    config = ServerConfig(port=0, max_line_bytes=4096)
    with ThreadedServer(service, config=config) as server:
        with ServiceClient("127.0.0.1", server.port, wire="binary") as fast:
            big = np.zeros((300, 4), dtype=np.int64)  # ~9.6 KB body
            with pytest.raises(FrameTooLargeError):
                fast.request({"op": "ingest", "name": "ranges", "boxes": big,
                              "side": "data"})
            # Length-prefixed framing survives an oversized frame: the same
            # connection keeps serving (no reconnect happened).
            assert fast.ping()["ok"]
            assert fast.reconnects == 0


def test_oversized_ndjson_line_answers_then_hangs_up():
    service = make_service()

    async def main():
        from repro.server.server import SketchServer

        server = SketchServer(service,
                              config=ServerConfig(port=0,
                                                  max_line_bytes=2048))
        await server.start(listening_socket("127.0.0.1", 0))
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(b"y" * 4096 + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            reply = protocol.decode(line)
            eof = await asyncio.wait_for(reader.readline(), timeout=30)
            writer.close()
            return reply, eof
        finally:
            await server.close()

    reply, eof = asyncio.run(main())
    assert not reply["ok"] and reply["error_code"] == "frame_too_large"
    assert eof == b""  # NDJSON framing is lost: server hangs up after replying


# -- cluster links ------------------------------------------------------------------


def test_worker_links_speak_binary():
    async def main(port: int):
        router = ClusterRouter(config=RouterConfig(port=0))
        try:
            info = await router.attach("w0", "127.0.0.1", port)
            await info.link.request_ok({"op": "estimate", "name": "ranges",
                                        "query": [0, 0, 90, 90]})
            return (await info.link.request_ok({"op": "stats"}))["server"]
        finally:
            await router.close()

    with ThreadedServer(make_service()) as worker:
        server = asyncio.run(main(worker.port))
    # Every frame the link sent (attach, estimate, stats) was binary.
    assert server["wire"]["binary"]["frames_in"] >= 3
    assert server["wire"]["ndjson"]["frames_in"] == 0
