"""Property-based tests (hypothesis) for the WAL record framing.

The durability contract under test:

* any batch of records round-trips bit-exactly through writer + reader,
* any byte-level truncation of a segment yields exactly the durable
  prefix — never a torn or corrupted record,
* any single-bit corruption of the tail record is detected by the CRC,
  so recovery restores a bit-identical prefix state.
"""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.wire import encode_binary
from repro.wal.framing import (
    WAL_MAGIC,
    WalFormatError,
    decode_payload,
    encode_record,
    iter_buffer_records,
)
from repro.wal.reader import list_segments, read_wal, scan_segment
from repro.wal.writer import WalWriter

# -- strategies -------------------------------------------------------------------

update_rows = st.integers(min_value=0, max_value=8).flatmap(
    lambda count: st.integers(min_value=1, max_value=3).map(
        lambda dim: (count, 2 * dim)))


def _rows_array(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-1000, 1000, size=shape, dtype=np.int64)


def _update(name, side, kind, rows):
    return encode_binary({"type": "update", "name": name, "side": side,
                          "kind": kind, "rows": rows})


def _tenant(action, tenant_id):
    event = {"type": "tenant", "action": action, "name": tenant_id}
    if action != "remove":
        event["record"] = {"tenant_id": tenant_id, "token_hash": "ab" * 32,
                           "quota": {"share": 2}, "created_at": 1.5,
                           "disabled": action == "update"}
    return encode_binary(event)


names = st.text(alphabet="abcxyz", min_size=1, max_size=8)

record_payloads = st.one_of(
    st.tuples(update_rows, st.integers(min_value=0, max_value=2**32 - 1)).map(
        lambda pair: _update("est", "left", "insert",
                             _rows_array(pair[0], pair[1]))),
    names.map(lambda name: encode_binary(
        {"type": "register", "name": name,
         "spec": {"family": "range", "sizes": [256]}})),
    names.map(lambda name: encode_binary({"type": "unregister",
                                          "name": name})),
    st.tuples(st.sampled_from(("create", "update", "remove")), names).map(
        lambda pair: _tenant(*pair)),
)


# -- round trips ------------------------------------------------------------------


class TestRecordRoundTrip:
    @given(payloads=st.lists(record_payloads, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_buffer_round_trip(self, payloads):
        buffer = b"".join(encode_record(index + 1, payload)
                          for index, payload in enumerate(payloads))
        decoded = list(iter_buffer_records(buffer))
        assert [seqno for seqno, _, _ in decoded] == list(
            range(1, len(payloads) + 1))
        assert [payload for _, payload, _ in decoded] == payloads
        assert decoded[-1][2] == len(buffer)

    @given(shape=update_rows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_update_payload_round_trip(self, shape, seed):
        rows = _rows_array(shape, seed)
        event = decode_payload(_update("name", "right", "delete", rows))
        assert event["type"] == "update"
        assert event["side"] == "right" and event["kind"] == "delete"
        assert event["rows"].dtype == np.int64
        assert event["rows"].shape == rows.shape
        assert (event["rows"] == rows).all()

    @given(payloads=st.lists(record_payloads, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_writer_reader_round_trip(self, payloads, tmp_path_factory):
        directory = tmp_path_factory.mktemp("wal")
        with WalWriter(directory, sync="none") as writer:
            for payload in payloads:
                event = decode_payload(payload)
                if event["type"] == "update":
                    writer.append_update(event["name"], event["side"],
                                         event["kind"], event["rows"])
                elif event["type"] == "register":
                    writer.append_register(event["name"], event["spec"])
                elif event["type"] == "tenant":
                    writer.append_tenant(event["action"], event["name"],
                                         event.get("record"))
                else:
                    writer.append_unregister(event["name"])
        records = read_wal(directory)[0]
        assert [seqno for seqno, _ in records] == list(
            range(1, len(payloads) + 1))
        assert [payload for _, payload in records] == payloads


# -- truncation and corruption ----------------------------------------------------


class TestTornTail:
    @given(payloads=st.lists(record_payloads, min_size=1, max_size=6),
           cut=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_any_truncation_yields_a_clean_prefix(self, payloads, cut,
                                                  tmp_path_factory):
        framed = [encode_record(index + 1, payload)
                  for index, payload in enumerate(payloads)]
        buffer = b"".join(framed)
        cut = min(cut, len(buffer))
        decoded = list(iter_buffer_records(buffer[:len(buffer) - cut]))
        # The survivors are exactly the records whose framed bytes fit
        # wholly inside the truncated buffer — never a partial record.
        offset = 0
        expected = []
        for index, frame in enumerate(framed):
            offset += len(frame)
            if offset <= len(buffer) - cut:
                expected.append((index + 1, payloads[index]))
        assert [(seqno, payload) for seqno, payload, _ in decoded] == expected

    @given(payloads=st.lists(record_payloads, min_size=1, max_size=4),
           bit=st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=50, deadline=None)
    def test_single_bit_flip_in_tail_is_detected(self, payloads, bit):
        buffer = b"".join(encode_record(index + 1, payload)
                          for index, payload in enumerate(payloads))
        tail_start = len(buffer) - len(
            encode_record(len(payloads), payloads[-1]))
        position = tail_start + bit % (len(buffer) - tail_start)
        corrupt = bytearray(buffer)
        corrupt[position] ^= 1 << (bit % 8)
        decoded = list(iter_buffer_records(bytes(corrupt)))
        # The flip lands in the last record: either its own CRC rejects
        # it, or (header-length flips) the reader sees a short/overlong
        # frame.  Every earlier record survives untouched.
        kept = [(seqno, payload) for seqno, payload, _ in decoded]
        expected_prefix = [(index + 1, payload)
                           for index, payload in enumerate(payloads[:-1])]
        assert kept == expected_prefix

    @given(payloads=st.lists(record_payloads, min_size=1, max_size=4),
           cut=st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_writer_resume_truncates_torn_tail(self, payloads, cut,
                                               tmp_path_factory):
        directory = tmp_path_factory.mktemp("wal")
        with WalWriter(directory, sync="none") as writer:
            for payload in payloads:
                writer.append_register("x", {"p": len(payload)})
        segment = list_segments(directory)[-1]
        size = os.path.getsize(segment)
        keep = max(len(WAL_MAGIC), size - cut)
        with open(segment, "r+b") as handle:
            handle.truncate(keep)
        survivors = scan_segment(segment).records
        with WalWriter(directory, sync="none") as resumed:
            assert resumed.last_seqno == (survivors[-1][0] if survivors
                                          else 0)
            # The torn bytes are gone: the file ends at the durable prefix
            # and a fresh append extends a fully-valid record run.
            assert os.path.getsize(segment) == scan_segment(
                segment).valid_bytes
            next_seqno = resumed.append_unregister("y")
            assert next_seqno == resumed.last_seqno
        records = read_wal(directory)[0]
        assert records[-1][0] == next_seqno
        assert [seqno for seqno, _ in records[:-1]] == [
            seqno for seqno, _ in survivors]

    def test_bad_magic_is_an_error_not_an_empty_log(self, tmp_path):
        bogus = tmp_path / "wal-00000000000000000001.log"
        bogus.write_bytes(b"NOTAWAL\n" + encode_record(
            1, encode_binary({"type": "unregister", "name": "x"})))
        with pytest.raises(WalFormatError):
            scan_segment(bogus)


class TestPayloadChecks:
    def test_tenant_events_round_trip(self):
        for action in ("create", "update", "remove"):
            event = decode_payload(_tenant(action, "acme"))
            assert event["type"] == "tenant" and event["action"] == action
            assert event["name"] == "acme"
            assert ("record" in event) == (action != "remove")

    def test_an_older_builds_payload_is_refused_with_the_upgrade_rule(self):
        """u32 header length + JSON header + raw rows, as logs were before
        payloads became wire frames: refused, naming the way forward."""
        rows = _rows_array((3, 4), seed=1)
        header = json.dumps({"type": "update", "name": "est", "side": "data",
                             "kind": "insert", "shape": [3, 4]}).encode()
        old = struct.pack("<I", len(header)) + header + rows.tobytes()
        with pytest.raises(WalFormatError, match="older build.*checkpoint"):
            decode_payload(old)

    @pytest.mark.parametrize("event", [
        {"type": "checkpoint", "name": "x"},
        {"type": "update", "name": "x", "side": "data", "kind": "insert",
         "rows": np.zeros((2, 4), dtype=np.float64)},
        {"type": "update", "name": "x", "side": "data", "kind": "insert",
         "rows": np.zeros(4, dtype=np.int64)},
        {"type": "tenant", "action": "rename", "name": "x"},
    ], ids=["unknown-type", "float-rows", "flat-rows", "bad-action"])
    def test_an_event_the_log_cannot_replay_is_refused(self, event):
        with pytest.raises(WalFormatError):
            decode_payload(encode_binary(event))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 0), (4,)],
                             ids=["odd-width", "zero-width", "flat"])
    def test_the_writer_refuses_rows_recovery_would_refuse(self, tmp_path, shape):
        """The writer and the reader share one rows rule: a batch the
        reader could not decode raises before anything is appended."""
        with WalWriter(tmp_path / "wal", sync="none") as writer:
            writer.append_update("est", "left", "insert",
                                 np.zeros((1, 4), dtype=np.int64))
            with pytest.raises(WalFormatError, match=r"\(count, 2\*dim\)"):
                writer.append_update("est", "left", "insert",
                                     np.zeros(shape, dtype=np.int64))
            assert writer.last_seqno == 1 and writer.appended_boxes == 1
        assert [seqno for seqno, _ in read_wal(tmp_path / "wal")[0]] == [1]
