"""A router with a :class:`~repro.cluster.router.RouterConfig` on a loop
thread, for tests that need tokens or a short request timeout.

It is built and attached the way ``cluster route`` does it —
``ClusterRouter(config=...)``, then one ``attach`` per worker — and runs
no heartbeat task: a test calls ``manager.heartbeat_once()`` itself.
"""

from __future__ import annotations

from repro.cluster.router import ClusterRouter, RouterConfig
from repro.server.runner import FrontThread


class RouterThread(FrontThread):
    def __init__(self, workers, config: RouterConfig) -> None:
        self.router = ClusterRouter(config=config)
        super().__init__(self.router)
        self._workers = list(workers)

    async def _start_front(self, sock) -> None:
        for index, (host, port) in enumerate(self._workers):
            await self.router.attach(f"w{index}", host, port)
        await self.router.start(sock)

    @property
    def manager(self):
        return self.router.manager
