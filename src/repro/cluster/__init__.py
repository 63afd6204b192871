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

import importlib

#: Where each re-export lives.  A name's module loads on first use, so a
#: ``cluster route`` process never loads the fleet spawner or a loop thread.
_HOMES = {
    "repro.cluster.connection": ("WorkerLink",),
    "repro.cluster.fleet": ("LocalFleet", "spawn_worker"),
    "repro.cluster.manager": ("ClusterManager", "WorkerInfo"),
    "repro.cluster.partial": ("merge_partial_states", "reduce_partials"),
    "repro.cluster.router": ("ClusterRouter", "RouterConfig"),
    "repro.cluster.runner": ("ThreadedClusterRouter",),
}

__all__ = [
    "WorkerLink",
    "ClusterManager",
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
    for module, names in _HOMES.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
