"""A sharded streaming sketch service built on the paper's linear sketches.

Atomic/dyadic sketches are linear projections, so sketches built
independently over partitions of a stream can be merged *exactly*.  This
package turns that property into a serving layer:

* :class:`~repro.service.specs.EstimatorSpec` — shared-seed specifications
  that keep shard sketches merge-compatible, for all eight estimator
  families,
* :class:`~repro.service.store.ShardedSketchStore` — hash-partitioned
  per-shard estimators with exact :meth:`merge_view` combination,
* :class:`~repro.service.ingest.IngestPipeline` — batched ingestion
  through the vectorised sketch updates, one buffer per destination,
  partitioned once at flush,
* :class:`~repro.service.service.EstimationService` — the
  register/ingest/estimate/snapshot front-end with an LRU cache of merged
  query views, each owning the delta that refreshes it after a flush
  (:mod:`~repro.service.delta`), and one estimate path (``estimate`` /
  ``estimate_batch`` / ``estimate_multi``) on one program executor,
* :mod:`~repro.service.snapshot` — checkpoint/restore built on
  ``state_dict``/``load_state_dict``: binary v2 snapshots (raw counter
  tensors, memory-mapped restores),
* :mod:`~repro.service.driver` — reproducible synthetic boxes and queries
  (:func:`synthetic_boxes`, :func:`synthetic_queries`); an update stream
  of :mod:`repro.data.streams` feeds ``ingest`` directly.
"""

import importlib

#: Where each re-export lives.  A name's module loads on first use, so a
#: process loads only what it touches: a router reads specs and partial
#: states, never the local service, its snapshots, ingest or synthetic data.
_HOMES = {
    "repro.service.specs": (
        "FAMILIES", "EstimatorSpec", "FamilyInfo", "apply_update", "family_info",
    ),
    "repro.service.store": ("ShardedSketchStore", "partition_boxes", "shard_ids"),
    "repro.service.ingest": ("FlushReport", "IngestPipeline", "IngestStats"),
    "repro.service.service": ("EstimationService", "ServiceStats"),
    "repro.service.snapshot": (
        "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "read_binary_snapshot_state",
        "restore_service",
    ),
    "repro.service.driver": ("synthetic_boxes", "synthetic_queries"),
}

__all__ = [
    "FAMILIES",
    "EstimatorSpec",
    "FamilyInfo",
    "family_info",
    "apply_update",
    "ShardedSketchStore",
    "shard_ids",
    "partition_boxes",
    "IngestPipeline",
    "IngestStats",
    "FlushReport",
    "EstimationService",
    "ServiceStats",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "read_binary_snapshot_state",
    "restore_service",
    "synthetic_boxes",
    "synthetic_queries",
]


def __getattr__(name: str):
    for module, names in _HOMES.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
