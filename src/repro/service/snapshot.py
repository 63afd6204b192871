"""Checkpoint and restore a sketch service (binary v2, the one format).

Snapshots build directly on the estimators' ``state_dict``/``load_state_dict``
(:class:`repro.core.estimator.SketchEstimator`, in turn
:meth:`repro.core.atomic.SketchBank.state_dict`): a snapshot stores, per
registered name, the :class:`~repro.service.specs.EstimatorSpec` and a list
of estimator states that sum to the name's sketch — this build writes one,
so the shard count stays with the running service.  A restore loads them
into shard 0 of a store of any shard count (an older file's per-shard
states are merged in ``merge_view``'s order, its ``num_shards`` ignored);
the xi-seed fingerprints embedded in the bank snapshots guard against
restoring counters into incompatible sketches.

The state tree has one form, in memory and on disk: counters and xi seeds
are tensors.  A file (``snapshot_version`` 2) is one JSON header describing
the tree, followed by the raw, 64-byte-aligned tensors exactly as the banks
hold them in memory (``.npz``-style: header + raw arrays).  Restores
memory-map the file and hand the banks read-only tensor views
(:func:`read_binary_snapshot_state`), so loading costs one ``mmap`` plus a
JSON header parse — near-zero-copy — and the counters are only materialised
(copy-on-write) if the restored sketch is mutated.

The v1 JSON format (per-word counter lists; no longer written since PR 18)
is no longer read either: such a file, or a tree that declares
``snapshot_version`` 1, raises a :class:`~repro.errors.SnapshotError` that
names the last build able to convert it.
"""

from __future__ import annotations

import io
import json
import os
import struct
from typing import Any, Mapping

import numpy as np

from repro.errors import MergeCompatibilityError, SnapshotError
from repro.service.specs import EstimatorSpec
from repro.service.store import ShardedSketchStore

#: Identifies the snapshot schema; bump on incompatible layout changes.
SNAPSHOT_FORMAT = "repro.service.snapshot"
#: The one snapshot version written and read (tensor-native state tree).
SNAPSHOT_VERSION = 2
#: What a v1 (JSON, per-word list) snapshot is answered with.
_V1_RETIRED = (
    "this is a v1 JSON snapshot, which this build no longer reads: the last "
    "build with a v1 reader is PR 20 (commit 07d1226) — load the snapshot "
    "there and save it again to get a binary v2 file"
)

#: First bytes of every binary (v2) snapshot file.
BINARY_MAGIC = b"REPROSNAP2\n"
#: Data-section alignment: tensors start on cache-line boundaries.
_ALIGNMENT = 64
#: Marker key for tensor slots inside the packed header tree.
_ARRAY_KEY = "__array__"


def store_snapshot(store: ShardedSketchStore) -> dict:
    """A self-describing snapshot tree of a sharded store.

    Bank counters and xi seeds are NumPy tensors — the form
    :func:`write_binary_snapshot_state` serialises without any per-word
    traversal.
    """
    state = store.state_dict()
    state["format"] = SNAPSHOT_FORMAT
    state["snapshot_version"] = SNAPSHOT_VERSION
    return state


def _header_int(state: Mapping, key: str) -> int:
    """An integer header field; anything else is a corrupt snapshot."""
    value = state[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SnapshotError(
            f"snapshot field {key!r} must be an integer, got {value!r}")
    return int(value)


def _validated(state: Mapping) -> Mapping:
    if not isinstance(state, Mapping):
        raise SnapshotError(f"snapshot must be a mapping, got {type(state).__name__}")
    fmt = state.get("format", SNAPSHOT_FORMAT)
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"not a service snapshot (format {fmt!r})")
    if "estimators" not in state:
        raise SnapshotError("snapshot is missing the 'estimators' field")
    if "wal_seqno" in state:
        _header_int(state, "wal_seqno")
    # A bare ``store.state_dict()`` carries no version: it is this build's.
    version = (_header_int(state, "snapshot_version")
               if "snapshot_version" in state else SNAPSHOT_VERSION)
    if version == 1:
        raise SnapshotError(_V1_RETIRED)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} is not the one supported ({SNAPSHOT_VERSION})"
        )
    return state


def restore_store_state(store: ShardedSketchStore, state: Mapping) -> None:
    """Register every estimator of a snapshot in an empty store, its states
    summed into shard 0.

    Read-only memory-mapped tensors of the first state are adopted without
    copying and materialised lazily on first mutation; writable ones are
    copied.
    """
    state = _validated(state)
    for name, entry in state["estimators"].items():
        try:
            spec = EstimatorSpec.from_dict(entry["spec"])
            first, *rest = entry["shards"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot entry for {name!r}: {exc}") from exc
        store.register(name, spec)
        try:
            estimator = store.shard_estimators(name)[0]
            estimator.load_state_dict(first, copy=False)
            for shard_state in rest:
                part = estimator.companion()
                part.load_state_dict(shard_state, copy=False)
                estimator.merge(part)
        except MergeCompatibilityError as exc:
            raise SnapshotError(
                f"snapshot entry {name!r} is incompatible with its own spec: {exc}"
            ) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"malformed snapshot entry for {name!r}: {exc}") from exc
        # Versions restart per process; bump once so caches never confuse a
        # freshly-restored estimator with a just-registered empty one.
        store.mark_updated(name)


def restore_service(state: Mapping, *, num_shards: int = 4):
    """Build a fresh :class:`~repro.service.service.EstimationService`."""
    from repro.service.service import EstimationService

    state = _validated(state)
    service = EstimationService(num_shards=num_shards)
    restore_store_state(service.store, state)
    if state.get("tenants") is not None:
        from repro.tenancy import TenantRegistry

        service.enable_tenancy(TenantRegistry.from_state(state["tenants"]))
    return service


# -- binary container (v2) ------------------------------------------------------


def _pack_tree(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace every ndarray leaf with a slot reference, collecting arrays.

    Each leaf gets its own slot; the reader resolves any slot reference, so
    files that point several leaves at one slot read the same.
    """
    if isinstance(node, np.ndarray):
        arrays.append(np.ascontiguousarray(node))
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(node, Mapping):
        return {str(key): _pack_tree(value, arrays)
                for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_pack_tree(value, arrays) for value in node]
    return node


def _unpack_tree(node: Any, arrays: list[np.ndarray]) -> Any:
    """Inverse of :func:`_pack_tree`: resolve slot references to arrays."""
    if isinstance(node, dict):
        if set(node) == {_ARRAY_KEY}:
            try:
                return arrays[int(node[_ARRAY_KEY])]
            except (IndexError, ValueError, TypeError) as exc:
                raise SnapshotError(f"dangling array reference: {exc}") from exc
        return {key: _unpack_tree(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_unpack_tree(value, arrays) for value in node]
    return node


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def write_binary_snapshot_state(state: Mapping, target) -> None:
    """Write a state tree as a binary (v2) snapshot.

    ``target`` is a path — written atomically, through ``<path>.tmp`` and
    ``os.replace`` — or a binary file object, written in place (how
    ``snapshot fetch`` serialises into memory).

    Layout: ``BINARY_MAGIC``, a little-endian uint64 header length, the JSON
    header (the state tree with tensors replaced by slot references plus a
    table of ``{dtype, shape, offset, nbytes}`` entries), zero padding, then
    the raw tensor bytes, each section 64-byte aligned.  Offsets are
    relative to the data section, so the header can be serialised before
    its own length is known.
    """
    arrays: list[np.ndarray] = []
    tree = _pack_tree(state, arrays)
    table = []
    offset = 0
    for array in arrays:
        if array.dtype.hasobject:  # pragma: no cover - states never hold objects
            raise SnapshotError("cannot serialise object arrays")
        offset = _aligned(offset)
        table.append({
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        })
        offset += array.nbytes
    header = json.dumps({"state": tree, "arrays": table},
                        separators=(",", ":")).encode("utf-8")
    data_start = _aligned(len(BINARY_MAGIC) + 8 + len(header))

    def write(handle) -> None:
        handle.write(BINARY_MAGIC)
        handle.write(struct.pack("<Q", len(header)))
        handle.write(header)
        position = len(BINARY_MAGIC) + 8 + len(header)
        for entry, array in zip(table, arrays):
            start = data_start + entry["offset"]
            handle.write(b"\0" * (start - position))
            handle.write(array.data)
            position = start + entry["nbytes"]

    if hasattr(target, "write"):
        write(target)
        return
    path = os.fspath(target)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        write(handle)
    os.replace(tmp, path)


def _read_binary_header(handle) -> tuple[dict, int]:
    """Parse the magic + header of an open binary snapshot file."""
    magic = handle.read(len(BINARY_MAGIC))
    if magic.lstrip()[:1] == b"{":
        raise SnapshotError(_V1_RETIRED)
    if magic != BINARY_MAGIC:
        raise SnapshotError("not a binary snapshot (bad magic bytes)")
    raw_length = handle.read(8)
    if len(raw_length) != 8:
        raise SnapshotError("truncated binary snapshot (incomplete header length)")
    (header_length,) = struct.unpack("<Q", raw_length)
    # Check the stored length against the bytes there before reading: a
    # corrupt length may exceed what ``read`` accepts or can allocate.
    header_start = handle.tell()
    if header_length > handle.seek(0, io.SEEK_END) - header_start:
        raise SnapshotError("truncated binary snapshot (incomplete header)")
    handle.seek(header_start)
    header_bytes = handle.read(header_length)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt binary snapshot header: {exc}") from exc
    if not isinstance(header, dict) or "state" not in header or "arrays" not in header:
        raise SnapshotError("corrupt binary snapshot header: missing fields")
    return header, _aligned(len(BINARY_MAGIC) + 8 + header_length)


def _state_from_buffer(buffer, header: dict, data_start: int):
    """The state tree whose tensors are read-only views into ``buffer``
    (the whole snapshot: its bytes, or a memory map of its file)."""
    total = len(buffer)
    arrays: list[np.ndarray] = []
    for entry in header["arrays"]:
        try:
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(value) for value in entry["shape"])
            relative = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"corrupt array table entry: {exc}") from exc
        if dtype.hasobject:
            raise SnapshotError("snapshot declares an object array")
        if relative < 0 or nbytes < 0 or any(extent < 0 for extent in shape):
            raise SnapshotError(
                "array table entry is inconsistent (negative offset or size)"
            )
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != nbytes:
            raise SnapshotError(
                f"array table entry is inconsistent ({expected} != {nbytes} bytes)"
            )
        offset = data_start + relative
        if offset + nbytes > total:
            raise SnapshotError("truncated binary snapshot (array data missing)")
        arrays.append(np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset))
    return _unpack_tree(header["state"], arrays)


def read_binary_snapshot_state(path):
    """Read a binary snapshot file back into a state tree.

    On POSIX systems the tensors are read-only views into a single
    memory-mapped buffer — nothing is copied; the OS pages counter data in
    on demand.  Elsewhere the file is read into private memory and parsed
    by :func:`snapshot_state_from_bytes`: Windows refuses to replace a file
    with live mappings, which would break save-over-restore round trips.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            if os.name != "posix":
                return snapshot_state_from_bytes(handle.read())
            header, data_start = _read_binary_header(handle)
    except OSError as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot map snapshot {path}: {exc}") from exc
    return _state_from_buffer(buffer, header, data_start)


def snapshot_state_from_bytes(raw: bytes):
    """The state tree of a snapshot held in memory (what ``snapshot fetch``
    ships); its tensors are read-only views into ``raw``."""
    header, data_start = _read_binary_header(io.BytesIO(raw))
    return _state_from_buffer(raw, header, data_start)
