"""Run a cluster router on a dedicated event-loop thread — the cluster's
:mod:`repro.server.runner` (a ``cluster route`` process never loads it)."""

from __future__ import annotations

import socket
from typing import Sequence

from repro.cluster.manager import ClusterManager
from repro.cluster.router import ClusterRouter
from repro.server.runner import FrontThread


class ThreadedClusterRouter(FrontThread):
    """Drive a router (plus its worker links) on a background loop thread.

    The synchronous mirror of :class:`~repro.server.runner.ThreadedServer`
    for clusters: tests and benchmarks start it, talk to ``port`` with a
    plain :class:`~repro.client.ServiceClient`, and steer topology through
    :meth:`run` (which executes a coroutine on the router's loop)::

        with ThreadedClusterRouter([("127.0.0.1", p1), ("127.0.0.1", p2)]) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            handle.run(handle.router.bootstrap_replica(
                "r0", "127.0.0.1", p3, source="w0"))
    """

    def __init__(self, workers: Sequence[tuple[str, int]] = (), *,
                 start_heartbeat: bool = True) -> None:
        self.router = ClusterRouter()
        super().__init__(self.router)
        self._workers = list(workers)
        self._start_heartbeat = start_heartbeat

    async def _start_front(self, sock: socket.socket) -> None:
        for index, (host, port) in enumerate(self._workers):
            await self.router.attach(f"w{index}", host, port)
        await self.router.start(sock)
        if self._start_heartbeat:
            self.router.manager.start_heartbeat()

    @property
    def manager(self) -> ClusterManager:
        return self.router.manager
