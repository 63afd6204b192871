"""Cluster scale-out: many sketch workers behind one logical service.

The package turns N independent :class:`~repro.server.server.SketchServer`
worker processes into one service a plain
:class:`~repro.client.ServiceClient` can talk to, following the
grid-federation shape (autonomous worker nodes, one logical catalog at the
router):

* :class:`~repro.cluster.connection.WorkerLink` — one pipelined asyncio
  binary-frame connection to a worker,
* :class:`~repro.cluster.manager.ClusterManager` — topology: worker
  registration, heartbeat health checks, read-replica bootstrap from a
  binary snapshot shipped over the wire, degraded-mode accounting,
* :class:`~repro.cluster.router.ClusterRouter` — the scatter-gather
  router: the same :class:`~repro.server.front.ServingFront` a single
  server is (connections, auth, quotas, dispatch, tenant administration),
  placed over the fleet instead of a local service, so one client library
  works against either.  ``ingest`` splits each frame over the shard
  workers, sorted by name, with the shard hash the
  :class:`~repro.service.store.ShardedSketchStore` uses and fans out in
  parallel; ``estimate`` gathers one partial state per owner group for
  each name of a coalesced batch and reduces them with one vectorised
  merge — bit-identical to a single-node service,
* :mod:`~repro.cluster.fleet` — spawn local worker subprocesses (the CLI's
  ``cluster serve`` and the benchmarks).

The sketch math makes the reduction exact by construction: counter updates
are integer-valued, so float64 addition is exact and order-independent,
and merging worker states is the same linear fold the sharded store
already performs in-process.
"""

from repro.cluster.connection import WorkerLink
from repro.cluster.fleet import LocalFleet, spawn_worker
from repro.cluster.manager import ClusterManager, HeartbeatConfig, WorkerInfo
from repro.cluster.partial import merge_partial_states, reduce_partials
from repro.cluster.router import ClusterRouter, RouterConfig

__all__ = [
    "WorkerLink",
    "ClusterManager",
    "HeartbeatConfig",
    "WorkerInfo",
    "merge_partial_states",
    "reduce_partials",
    "ClusterRouter",
    "RouterConfig",
    "ThreadedClusterRouter",
    "LocalFleet",
    "spawn_worker",
]


def __getattr__(name: str):
    # Loaded on first use: a ``cluster route`` process runs no loop thread.
    if name == "ThreadedClusterRouter":
        from repro.cluster.runner import ThreadedClusterRouter

        return ThreadedClusterRouter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
