"""Tests for the binary (v2) snapshot format and the memory-mapped restores.

Covers the guarantees of the columnar state layer:

* every estimator family answers bit-identically after a round trip through
  a snapshot file, memory-mapped or read into private memory,
* a snapshot holds each name's shards summed, so it restores into any
  shard count and answers as its source, before and after further inserts
  and deletes on both sides,
* a checked-in v2 fixture written by an earlier build (PR 20, before the
  estimator contract was factored into ``repro.core.estimator``; one state
  per shard) still restores into any shard count, answers its recorded
  queries exactly and re-saves as the sum of its shard states
  (backward compatibility of the on-disk layout),
* corrupt, truncated and retired-format (v1 JSON) snapshots raise
  :class:`SnapshotError`.
"""

from __future__ import annotations

import io
import json
import pathlib
import struct

import numpy as np
import pytest

from repro.errors import SnapshotError
from repro.geometry.boxset import BoxSet
from repro.server.protocol import json_default
from repro.service import (
    EstimationService,
    EstimatorSpec,
    restore_service,
)
from repro.service.snapshot import (
    BINARY_MAGIC,
    read_binary_snapshot_state,
    snapshot_state_from_bytes,
    write_binary_snapshot_state,
)

from tests.conftest import random_boxes

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: One representative spec per estimator family (all eight).
FAMILY_SPECS = [
    ("interval", (256,), {}),
    ("rectangle", (256, 256), {}),
    ("hyperrect", (64, 64, 64), {}),
    ("extended_overlap", (256, 256), {}),
    ("common_endpoint", (256, 256), {}),
    ("containment", (256, 256), {}),
    ("epsilon", (256, 256), {"epsilon": 3}),
    ("range", (256, 256), {}),
]


def _family_boxes(rng, family, sizes, count):
    boxes = random_boxes(rng, count, sizes[0], len(sizes))
    if family == "epsilon":
        return BoxSet(boxes.lows, boxes.lows.copy(), validate=False)
    return boxes


def _family_service(rng, family, sizes, options, *, num_shards=3):
    service = EstimationService(num_shards=num_shards, flush_threshold=None)
    spec = EstimatorSpec.create(family, sizes, 16, seed=13, **options)
    service.register("est", spec)
    for side in spec.info.sides:
        service.ingest("est", _family_boxes(rng, family, sizes, 90), side=side)
    service.flush()
    return service, spec


def _canonical(node):
    """A state tree with each tensor as ``(dtype, shape, bytes)``."""
    if isinstance(node, np.ndarray):
        return (node.dtype.str, node.shape, node.tobytes())
    if isinstance(node, dict):
        return {key: _canonical(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_canonical(value) for value in node]
    return node


def _summed(states, key=None):
    """Per-shard estimator states summed as a store sums its shards:
    counters, update counts and side counts add; the rest is shared."""
    first, *rest = states
    if isinstance(first, dict):
        return {k: _summed([state[k] for state in states], k) for k in first}
    if key in ("counters", "updates") or key.endswith("count"):
        for state in rest:
            first = first + state
        return first
    assert all(_canonical(state) == _canonical(first) for state in rest), key
    return first


def _write_v1_json(path) -> None:
    """The shape of a v1 JSON snapshot file as builds before PR 18 wrote it."""
    path.write_text(json.dumps({
        "num_shards": 2, "estimators": {},
        "format": "repro.service.snapshot", "snapshot_version": 1,
    }), encoding="utf-8")


class TestBothFormatsRoundTrip:
    @pytest.mark.parametrize("family,sizes,options", FAMILY_SPECS,
                             ids=[f[0] for f in FAMILY_SPECS])
    def test_bit_identical_estimates_after_both_round_trips(
            self, rng, tmp_path, family, sizes, options):
        service, spec = _family_service(rng, family, sizes, options)
        query = None
        if spec.info.queryable:
            query = random_boxes(rng, 1, sizes[0], len(sizes))
        original = service.estimate("est", query)

        path = tmp_path / "svc.snap"
        service.save(path)
        with open(path, "rb") as handle:
            assert handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC

        # Both ways a file is read: memory-mapped, and into private memory.
        for state in (read_binary_snapshot_state(path),
                      snapshot_state_from_bytes(path.read_bytes())):
            restored = restore_service(state)
            result = restored.estimate("est", query)
            assert result.estimate == original.estimate
            assert np.array_equal(result.instance_values,
                                  original.instance_values)
            assert result.left_count == original.left_count
            assert result.right_count == original.right_count

    def test_in_memory_array_snapshot_restores_do_not_alias(self, rng):
        """Two services restored from one in-memory tree must not share
        writable counter tensors — ingesting into one must not touch the
        other (only read-only mmap views are adopted without copying)."""
        service, _ = _family_service(rng, "rectangle", (256, 256), {})
        state = service.snapshot()
        first = restore_service(state)
        second = restore_service(state)
        before = second.estimate("est").estimate
        first.ingest("est", random_boxes(rng, 50, 256, 2), side="left")
        first.flush()
        assert second.estimate("est").estimate == before

    def test_restored_binary_service_supports_further_ingestion(self, rng, tmp_path):
        """Counters adopted from the mmap must copy-on-write, not crash."""
        service, spec = _family_service(rng, "rectangle", (256, 256), {})
        path = tmp_path / "svc.snap"
        service.save(path)
        restored = EstimationService.load(path)
        shard = next(iter(restored.store.shard_estimators("est")))
        # Adopted without copying: a read-only view into the mapped file.
        assert not shard.side_bank("left")._matrix.flags.writeable
        later = random_boxes(rng, 40, 256, 2)
        for svc in (service, restored):
            svc.ingest("est", later, side="left")
            svc.flush()
        assert (restored.estimate("est").estimate
                == service.estimate("est").estimate)

    def test_json_suffix_selects_nothing(self, rng, tmp_path):
        service, _ = _family_service(rng, "interval", (256,), {})
        path = tmp_path / "svc.json"
        service.save(path)
        with open(path, "rb") as handle:
            assert handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        assert EstimationService.load(path).estimate("est").estimate \
            == service.estimate("est").estimate


class TestAnyShardCount:
    """The shard count is the running service's: a snapshot holds each
    name's sum, and a store of any count restores it into shard 0."""

    @pytest.mark.parametrize("family,sizes,options", FAMILY_SPECS,
                             ids=[f[0] for f in FAMILY_SPECS])
    def test_a_4_shard_snapshot_answers_alike_in_1_2_and_7_shards(
            self, rng, tmp_path, family, sizes, options):
        source = EstimationService(num_shards=4, flush_threshold=None)
        spec = EstimatorSpec.create(family, sizes, 16, seed=13, **options)
        source.register("est", spec)
        # Boxes the snapshot holds, deleted after the restore: they hash to
        # other shards in 1, 2 and 7 than they did in 4.
        held = {}
        for side in spec.info.sides:
            boxes = _family_boxes(rng, family, sizes, 90)
            source.ingest("est", boxes, side=side)
            held[side] = boxes[:30]
        path = tmp_path / "svc.snap"
        source.save(path)
        state = read_binary_snapshot_state(path)
        assert "num_shards" not in state
        assert len(state["estimators"]["est"]["shards"]) == 1
        queries = None
        if spec.info.queryable:
            queries = random_boxes(rng, 6, sizes[0], len(sizes))
        restored = [EstimationService.load(path, num_shards=count)
                    for count in (1, 2, 7)]
        assert [service.num_shards for service in restored] == [1, 2, 7]

        def answers(service):
            if queries is None:
                scalar = [service.estimate("est")]
                batch = service.estimate_batch("est", 3)
            else:
                scalar = [service.estimate("est", queries[row:row + 1])
                          for row in range(len(queries))]
                batch = service.estimate_batch("est", queries)
            return ([(r.estimate, r.instance_values.tobytes(), r.left_count,
                      r.right_count) for r in scalar],
                    [r.estimate for r in batch])

        more = {side: _family_boxes(rng, family, sizes, 40)
                for side in spec.info.sides}
        for step in ("restored", "inserted", "deleted"):
            for service in (source, *restored):
                for side in spec.info.sides:
                    if step == "inserted":
                        service.ingest("est", more[side], side=side)
                    elif step == "deleted":
                        service.ingest("est", held[side], side=side,
                                       kind="delete")
                service.flush()
            expected = answers(source)
            for service in restored:
                assert answers(service) == expected, (step, service.num_shards)


class TestV2FixtureRegression:
    """A snapshot written by an earlier build must keep answering.

    ``service_snapshot_v2.snap`` was written by the PR 20 build: all eight
    families, one state per shard of 2 (and a ``num_shards`` header field,
    now ignored), ~300 boxes a side with some deletes, ``join``
    registered with ``max_levels``, ``acme/ranges`` inside a tenant's
    namespace.  ``service_snapshot_v2.expected.json`` holds what that build
    answered (``acme/ranges``' per-query ``instance_values`` were added by
    the build before level-split counters, from this same file).  Its spec
    has no ``split_levels``, so it stays one cell per word.
    """

    SNAPSHOT = FIXTURES / "service_snapshot_v2.snap"
    EXPECTED = json.loads(
        (FIXTURES / "service_snapshot_v2.expected.json").read_text())

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("read", [
        read_binary_snapshot_state,
        lambda path: snapshot_state_from_bytes(path.read_bytes()),
    ], ids=["mmap", "read"])
    def test_fixture_restores_and_answers_identically(self, read, num_shards):
        """In any shard count: the file's two states per name are summed."""
        service = restore_service(read(self.SNAPSHOT), num_shards=num_shards)
        assert service.num_shards == num_shards
        assert service.tenants.describe()["ids"] == self.EXPECTED["tenants"]
        assert service.spec("join").max_levels == (5, 5)
        assert sorted(service.names()) == sorted(self.EXPECTED["names"])
        rows = np.asarray(self.EXPECTED["queries"], dtype=np.int64)
        queries = BoxSet(rows[:, :2], rows[:, 2:])
        for name, expected in self.EXPECTED["names"].items():
            assert service.spec(name).family == expected["family"]
            if expected["family"] == "range":
                scalar = [service.estimate(name, queries[row:row + 1])
                          for row in range(len(queries))]
                assert [r.estimate for r in scalar] == expected["scalar"]
                assert [r.instance_values.tolist() for r in scalar] \
                    == expected["instance_values"]
                assert not service.spec(name).split_levels
                assert service.merged_view(name).bank.levels == (1, 1)
                batch = service.estimate_batch(name, queries)
                assert scalar[0].left_count == expected["left_count"]
            else:
                result = service.estimate(name)
                assert result.estimate == expected["scalar"]
                assert result.instance_values.tolist() == expected["instance_values"]
                assert result.left_count == expected["left_count"]
                assert result.right_count == expected["right_count"]
                batch = service.estimate_batch(name, len(expected["batch"]))
            assert [r.estimate for r in batch] == expected["batch"]

    def test_console_script_estimates_from_the_fixture(self, capsys):
        """What CI's console smoke step runs."""
        from repro.cli import main

        assert main(["estimate", "--snapshot", str(self.SNAPSHOT),
                     "--name", "join"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["estimate"] == self.EXPECTED["names"]["join"]["scalar"]
        query = ",".join(str(v) for v in self.EXPECTED["queries"][0])
        assert main(["estimate", "--snapshot", str(self.SNAPSHOT),
                     "--name", "acme/ranges", "--query", query]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["estimate"] == self.EXPECTED["names"]["acme/ranges"]["scalar"][0]

    def test_fixture_resaves_as_the_sum_of_its_shard_states(self, tmp_path):
        """Restore + save keeps every header field but the dropped
        ``num_shards`` and writes each name's two shard states as one, their
        sum, bit for bit; saving that file again writes the same bytes."""
        path = tmp_path / "again.snap"
        EstimationService.load(self.SNAPSHOT).save(path)
        fixture = read_binary_snapshot_state(self.SNAPSHOT)
        again = read_binary_snapshot_state(path)
        assert _canonical({**fixture, "num_shards": None, "estimators": None}) \
            == _canonical({**again, "num_shards": None, "estimators": None})
        assert again["estimators"].keys() == fixture["estimators"].keys()
        for name, entry in fixture["estimators"].items():
            assert len(entry["shards"]) == 2
            assert _canonical(again["estimators"][name]) == _canonical(
                {**entry, "shards": [_summed(entry["shards"])]})
        twice = tmp_path / "twice.snap"
        EstimationService.load(path).save(twice)
        assert twice.read_bytes() == path.read_bytes()


class TestCorruptSnapshots:
    def _binary_snapshot(self, rng, tmp_path) -> pathlib.Path:
        service, _ = _family_service(rng, "interval", (256,), {})
        path = tmp_path / "svc.snap"
        service.save(path)
        return path

    def test_truncated_data_section_raises(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 256])
        with pytest.raises(SnapshotError, match="truncated"):
            EstimationService.load(path)

    def test_truncated_header_raises(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        path.write_bytes(path.read_bytes()[:len(BINARY_MAGIC) + 12])
        with pytest.raises(SnapshotError, match="truncated"):
            EstimationService.load(path)

    def test_garbage_header_json_raises(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        blob = bytearray(path.read_bytes())
        start = len(BINARY_MAGIC) + 8
        blob[start:start + 16] = b"\xff" * 16
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="header"):
            EstimationService.load(path)

    def test_non_snapshot_bytes_raise(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"\x00\x01\x02 definitely not a snapshot")
        with pytest.raises(SnapshotError):
            EstimationService.load(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EstimationService.load(tmp_path / "nope.snap")

    def test_read_snapshot_state_detects_both_formats(self, rng, tmp_path):
        """Binary reads; a v1 JSON file is told apart and refused by name."""
        path = self._binary_snapshot(rng, tmp_path)
        assert read_binary_snapshot_state(path)["snapshot_version"] == 2
        json_path = tmp_path / "svc.json"
        _write_v1_json(json_path)
        for reader in (read_binary_snapshot_state, EstimationService.load):
            with pytest.raises(SnapshotError, match="v1 JSON.*PR 20"):
                reader(json_path)

    def test_version_1_tree_is_refused(self):
        with pytest.raises(SnapshotError, match="v1 JSON.*PR 20"):
            restore_service({"format": "repro.service.snapshot",
                             "snapshot_version": 1,
                             "estimators": {}})

    @pytest.mark.parametrize("field,value", [
        ("snapshot_version", "abc"), ("snapshot_version", None),
        ("snapshot_version", 2.0), ("snapshot_version", True),
        ("snapshot_version", 0), ("snapshot_version", -3),
        ("wal_seqno", "7"), ("wal_seqno", None),
    ])
    def test_malformed_header_values_are_snapshot_errors(
            self, tmp_path, field, value):
        """Header fields that are not integers (or a version below 2) must
        stay inside the error taxonomy, in a tree and in a file."""
        state = {"format": "repro.service.snapshot", "snapshot_version": 2,
                 "estimators": {}, field: value}
        with pytest.raises(SnapshotError):
            restore_service(state)
        with pytest.raises(SnapshotError):
            EstimationService(num_shards=1).store.load_state_dict(state)
        path = tmp_path / "svc.snap"
        write_binary_snapshot_state(state, path)
        with pytest.raises(SnapshotError):
            EstimationService.load(path)

    def test_negative_array_offset_raises(self, tmp_path):
        state = {"format": "repro.service.snapshot", "snapshot_version": 2,
                 "estimators": {},
                 "first": np.arange(64, dtype=np.float64),
                 "second": np.arange(64, dtype=np.float64) * 2.0}
        path = tmp_path / "svc.snap"
        write_binary_snapshot_state(state, path)
        blob = path.read_bytes()
        # Same-length patch so the stored header length stays valid: the
        # second array sits at (relative) offset 512 -> point it before the
        # data section instead.
        patched = blob.replace(b'"offset":512', b'"offset":-12', 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(SnapshotError, match="negative"):
            read_binary_snapshot_state(path)

    def test_an_entry_without_a_state_is_a_snapshot_error(self, rng):
        service, _ = _family_service(rng, "interval", (256,), {})
        state = service.snapshot()
        state["estimators"]["est"]["shards"] = []
        with pytest.raises(SnapshotError, match="malformed"):
            restore_service(state)

    def test_malformed_xi_coefficients_surface_as_snapshot_error(self, rng):
        """A hand-edited tree with garbage xi seeds (here after a JSON hop)
        must raise SnapshotError, not a raw numpy OverflowError."""
        service, _ = _family_service(rng, "interval", (256,), {})
        state = json.loads(json.dumps(service.snapshot(), default=json_default))
        shard = state["estimators"]["est"]["shards"][0]
        shard["left"]["xi_coefficients"][0][0][0] = -1
        with pytest.raises(SnapshotError):
            restore_service(state)

    def test_writer_takes_a_binary_file_object(self, rng, tmp_path):
        """``snapshot fetch`` serialises into memory: same bytes as a path."""
        import io

        service, _ = _family_service(rng, "interval", (256,), {})
        state = service.snapshot()
        path = tmp_path / "svc.snap"
        write_binary_snapshot_state(state, path)
        buffer = io.BytesIO()
        write_binary_snapshot_state(state, buffer)
        assert buffer.getvalue() == path.read_bytes()
        assert not (tmp_path / "svc.snap.tmp").exists()

    @staticmethod
    def _two_name_blob(rng) -> bytes:
        service = EstimationService(num_shards=2, flush_threshold=None)
        service.register("iv", EstimatorSpec.create("interval", (64,), 4, seed=1))
        service.register("rq", EstimatorSpec.create("range", (32, 32), 4, seed=2))
        service.ingest("iv", random_boxes(rng, 20, 64, 1), side="left")
        service.ingest("iv", random_boxes(rng, 20, 64, 1), side="right")
        service.ingest("rq", random_boxes(rng, 20, 32, 2), side="data")
        buffer = io.BytesIO()
        write_binary_snapshot_state(service.snapshot(), buffer)
        return buffer.getvalue()

    def test_every_truncation_is_a_snapshot_error(self, rng, tmp_path):
        blob = self._two_name_blob(rng)
        path = tmp_path / "cut.snap"
        for cut in range(len(blob)):
            with pytest.raises(SnapshotError):
                snapshot_state_from_bytes(blob[:cut])
            path.write_bytes(blob[:cut])
            with pytest.raises(SnapshotError):
                read_binary_snapshot_state(path)
        with pytest.raises(SnapshotError, match="cannot read"):
            read_binary_snapshot_state(tmp_path)

    def test_a_flip_of_any_header_byte_reads_or_is_a_snapshot_error(self, rng, tmp_path):
        """No flip of the magic, the stored header length or the header
        escapes the error taxonomy; a flip that leaves valid JSON may read."""
        blob = self._two_name_blob(rng)
        length_at = len(BINARY_MAGIC)
        (header_length,) = struct.unpack("<Q", blob[length_at:length_at + 8])
        path = tmp_path / "flip.snap"
        for index in range(length_at + 8 + header_length):
            for mask in (0x01, 0x80, 0xFF):
                corrupt = bytearray(blob)
                corrupt[index] ^= mask
                path.write_bytes(corrupt)
                for read in (lambda: snapshot_state_from_bytes(bytes(corrupt)),
                             lambda: read_binary_snapshot_state(path)):
                    try:
                        read()
                    except SnapshotError:
                        pass
        # The length's top byte set: a length beyond any file, refused by name.
        corrupt = bytearray(blob)
        corrupt[length_at + 7] ^= 0x80
        with pytest.raises(SnapshotError, match="incomplete header"):
            snapshot_state_from_bytes(bytes(corrupt))

    def test_inconsistent_array_table_raises(self, tmp_path):
        state = {"format": "repro.service.snapshot", "snapshot_version": 2,
                 "estimators": {},
                 "blob": np.arange(8, dtype=np.float64)}
        path = tmp_path / "svc.snap"
        write_binary_snapshot_state(state, path)
        blob = path.read_bytes()
        # Corrupt the declared shape so nbytes no longer matches.
        patched = blob.replace(b'"shape":[8]', b'"shape":[9]', 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(SnapshotError, match="inconsistent"):
            read_binary_snapshot_state(path)
