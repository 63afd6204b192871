"""Tests for the binary (v2) snapshot format and the memory-mapped restores.

Covers the tentpole guarantees of the columnar state layer:

* every estimator family answers bit-identically after a round trip through
  *both* snapshot formats the loader reads (v2 binary, the one format
  written, and the v1 JSON tree earlier builds wrote),
* a checked-in v1 JSON fixture from an earlier build still restores and
  answers its recorded queries exactly (backward compatibility),
* corrupt and truncated binary snapshots raise :class:`SnapshotError`.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.errors import SnapshotError
from repro.service import (
    EstimationService,
    EstimatorSpec,
    load_snapshot,
)
from repro.service.snapshot import (
    BINARY_MAGIC,
    read_binary_snapshot_state,
    read_snapshot_state,
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
        from repro.geometry.boxset import BoxSet

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


def _write_v1_json(service, path) -> None:
    """A v1 JSON snapshot file as earlier builds wrote it (the writer is
    gone; the list-based tree it dumped is still ``service.snapshot()``)."""
    path.write_text(json.dumps(service.snapshot()), encoding="utf-8")


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

        binary_path = tmp_path / "svc.snap"
        json_path = tmp_path / "svc.json"
        service.save(binary_path)
        _write_v1_json(service, json_path)
        with open(binary_path, "rb") as handle:
            assert handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        json.load(open(json_path, encoding="utf-8"))  # really is v1 JSON

        for path in (binary_path, json_path):
            restored = load_snapshot(path)
            result = restored.estimate("est", query)
            assert result.estimate == original.estimate
            assert np.array_equal(result.instance_values,
                                  original.instance_values)
            assert result.left_count == original.left_count
            assert result.right_count == original.right_count

    def test_in_memory_array_snapshot_restores_do_not_alias(self, rng):
        """Two services restored from one arrays=True tree must not share
        writable counter tensors — ingesting into one must not touch the
        other (only read-only mmap views are adopted without copying)."""
        service, _ = _family_service(rng, "rectangle", (256, 256), {})
        state = service.snapshot(arrays=True)
        first = EstimationService.restore(state)
        second = EstimationService.restore(state)
        before = second.estimate("est").estimate
        first.ingest("est", random_boxes(rng, 50, 256, 2), side="left")
        first.flush()
        assert second.estimate("est").estimate == before

    def test_restored_binary_service_supports_further_ingestion(self, rng, tmp_path):
        """Counters adopted from the mmap must copy-on-write, not crash."""
        service, spec = _family_service(rng, "rectangle", (256, 256), {})
        path = tmp_path / "svc.snap"
        service.save(path)
        restored = load_snapshot(path)
        shard = next(iter(restored.store.shard_estimators("est")))
        # Adopted without copying: a read-only view into the mapped file.
        assert not shard._left_bank._matrix.flags.writeable
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
        assert load_snapshot(path).estimate("est").estimate \
            == service.estimate("est").estimate

    def test_binary_snapshot_dedupes_shared_xi_tensors(self, rng, tmp_path):
        """Shards and bank sides share xi families -> stored once, not 2*shards."""
        service, _ = _family_service(rng, "rectangle", (256, 256), {},
                                     num_shards=4)
        path = tmp_path / "svc.snap"
        service.save(path)
        state = read_binary_snapshot_state(path)
        shards = state["estimators"]["est"]["shards"]
        xi_ids = {id(bank_state["xi_coefficients"])
                  for shard in shards
                  for bank_state in (shard["left"], shard["right"])}
        assert len(xi_ids) == 1  # one shared mmap view across all 8 refs


class TestV1FixtureRegression:
    """A snapshot written by the v1 (JSON-only) build must keep answering."""

    def test_fixture_restores_and_answers_identically(self):
        expected = json.loads(
            (FIXTURES / "service_snapshot_v1.expected.json").read_text())
        service = load_snapshot(FIXTURES / "service_snapshot_v1.json")
        assert service.estimate("join").estimate == expected["join_estimate"]
        rows = np.asarray(expected["queries"], dtype=np.int64)
        from repro.geometry.boxset import BoxSet

        dimension = rows.shape[1] // 2
        queries = BoxSet(rows[:, :dimension], rows[:, dimension:])
        estimates = [r.estimate
                     for r in service.estimate_batch("ranges", queries)]
        assert estimates == expected["range_estimates"]

    def test_fixture_is_version_1_json(self):
        state = json.loads((FIXTURES / "service_snapshot_v1.json").read_text())
        assert state["snapshot_version"] == 1


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
            load_snapshot(path)

    def test_truncated_header_raises(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        path.write_bytes(path.read_bytes()[:len(BINARY_MAGIC) + 12])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_garbage_header_json_raises(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        blob = bytearray(path.read_bytes())
        start = len(BINARY_MAGIC) + 8
        blob[start:start + 16] = b"\xff" * 16
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="header"):
            load_snapshot(path)

    def test_non_snapshot_bytes_raise(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"\x00\x01\x02 definitely not a snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path / "nope.snap")

    def test_read_snapshot_state_detects_both_formats(self, rng, tmp_path):
        path = self._binary_snapshot(rng, tmp_path)
        assert read_snapshot_state(path)["snapshot_version"] == 2
        json_path = tmp_path / "svc.json"
        service, _ = _family_service(rng, "interval", (256,), {})
        _write_v1_json(service, json_path)
        assert read_snapshot_state(json_path)["snapshot_version"] == 1

    def test_negative_array_offset_raises(self, tmp_path):
        state = {"format": "repro.service.snapshot", "snapshot_version": 2,
                 "num_shards": 1, "estimators": {},
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

    def test_malformed_xi_coefficients_surface_as_snapshot_error(
            self, rng, tmp_path):
        """A hand-edited v1 snapshot with garbage xi seeds must raise
        SnapshotError, not a raw numpy OverflowError."""
        service, _ = _family_service(rng, "interval", (256,), {})
        path = tmp_path / "svc.json"
        state = service.snapshot()
        shard = state["estimators"]["est"]["shards"][0]
        shard["left"]["xi_coefficients"][0][0][0] = -1
        path.write_text(json.dumps(state))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_inconsistent_array_table_raises(self, tmp_path):
        state = {"format": "repro.service.snapshot", "snapshot_version": 2,
                 "num_shards": 1, "estimators": {},
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
