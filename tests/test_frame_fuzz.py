"""Structure-aware fuzzing of the two frame decoders.

Whatever bytes reach a connection, :func:`repro.server.protocol.decode`
(one NDJSON line) and :func:`repro.server.wire.decode_binary` (one RBF1
frame's header and body) either return a payload dict or raise
:class:`~repro.errors.ProtocolError` — the one exception the connection
loop answers and survives.  The strategies build frames the way the
format is laid out: JSON header objects, ``_b`` descriptor lists of
arbitrary JSON values with a bias towards well-formed ``[path, kind,
meta]`` triples, and bodies whose length need not match what the header
declares.
"""

import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import protocol, wire

SCALARS = (st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
           | st.floats() | st.text(max_size=8))

#: Any JSON value (NaN and the infinities too: ``json`` writes and reads them).
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)

KEYS = st.sampled_from(["op", "name", "boxes", "x", "0"]) | st.text(max_size=4)

PATHS = st.lists(KEYS | st.integers(-3, 5) | JSON_VALUES, max_size=4)

KINDS = st.sampled_from(["raw", *wire.TENSOR_DTYPES, "<i4", "|u1"]) | JSON_VALUES

METAS = (st.integers(-2, 64) | st.lists(st.integers(-1, 8), max_size=4)
         | JSON_VALUES)

DESCRIPTORS = st.tuples(PATHS, KINDS, METAS).map(list) | JSON_VALUES


@st.composite
def rbf1_parts(draw) -> tuple[bytes, bytes]:
    """``(header, body)`` bytes of one RBF1 frame, likely malformed."""
    header = draw(st.dictionaries(KEYS, JSON_VALUES, max_size=4)
                  | JSON_VALUES)
    if isinstance(header, dict) and draw(st.booleans()):
        header[wire.BODY_KEY] = draw(st.lists(DESCRIPTORS, max_size=4)
                                     | JSON_VALUES)
    raw = (json.dumps(header).encode("utf-8")
           if draw(st.integers(0, 9)) else draw(st.binary(max_size=32)))
    return raw, draw(st.binary(max_size=96))


def _payload_or_protocol_error(decode, *args):
    try:
        payload = decode(*args)
    except ProtocolError:
        return
    assert isinstance(payload, dict)


@settings(max_examples=200, deadline=None)
@given(rbf1_parts())
@example((b'{"_b":[[["x"],"raw","abc"]]}', b""))
@example((b'{"x":0,"_b":[[["x",0],"<i8",[1]]]}', bytes(8)))
@example((b'{"x":[0],"_b":[[["x",Infinity],"raw",0]]}', b""))
@example((b'{"_b":[[["x"],"<i8",[0,100000000000000000000]]]}', b""))
def test_decode_binary_returns_a_dict_or_raises_protocol_error(parts):
    _payload_or_protocol_error(wire.decode_binary, *parts)


@settings(max_examples=100, deadline=None)
@given(rbf1_parts(), st.integers(0, 128))
def test_a_whole_frame_with_any_declared_body_length(parts, declared):
    """Read through the stream reader, with a body length in the prefix
    that may disagree with the bytes that follow."""
    header, body = parts
    frame = (wire.FRAME_PREFIX.pack(wire.MAGIC, len(header), declared)
             + header + body)
    _payload_or_protocol_error(wire.read_binary_frame_sync, io.BytesIO(frame))


NDJSON_LINES = (
    (st.dictionaries(KEYS, JSON_VALUES, max_size=4) | JSON_VALUES).map(
        lambda value: json.dumps(value).encode("utf-8"))
    | st.text(max_size=64).map(lambda text: text.encode("utf-8"))
    | st.binary(max_size=64))


@settings(max_examples=200, deadline=None)
@given(NDJSON_LINES)
@example(b"[" * 100_000)
@example(b"1" * 5_000)
@example(b'{"op": 1' + b"0" * 5_000 + b"}")
def test_protocol_decode_returns_a_dict_or_raises_protocol_error(line):
    _payload_or_protocol_error(protocol.decode, line)
    _payload_or_protocol_error(protocol.decode, line + b"\n")
