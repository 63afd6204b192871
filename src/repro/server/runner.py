"""Run a serving front on a dedicated event-loop thread.

An asyncio front wants to own its loop; synchronous callers (the CLI's
offline paths, tests, benchmarks, notebook users) want a handle they can
start, query for the bound port, and stop.  :class:`FrontThread` bridges
the two: it spins up a daemon thread running ``asyncio``, starts the
front, and exposes a thread-safe :meth:`~FrontThread.stop` and
:meth:`~FrontThread.run`.  :class:`ThreadedServer` is the handle for a
:class:`~repro.server.server.SketchServer`
(:class:`~repro.cluster.runner.ThreadedClusterRouter` the one for a
router)::

    with ThreadedServer(service) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        ...
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading

from repro.cli import listening_socket
from repro.errors import ServiceError
from repro.server.front import ServingFront
from repro.server.server import ServerConfig, SketchServer
from repro.service.service import EstimationService

#: Seconds :meth:`FrontThread.start` waits for the front to come up, and
#: :meth:`FrontThread.stop` for its loop thread to end.
_LIFECYCLE_TIMEOUT_S = 30.0


class FrontThread:
    """Owns one front plus the background thread driving its event loop."""

    def __init__(self, front: ServingFront) -> None:
        self._front = front
        self._name = f"{type(front).__name__}-loop"
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready: concurrent.futures.Future = concurrent.futures.Future()

    # -- lifecycle ----------------------------------------------------------------

    def start(self):
        if self._thread is not None:
            raise ServiceError(f"{self._name} thread already started")
        # Bound here, so a port in use raises in the caller.
        config = self._front.config
        sock = listening_socket(config.host, config.port)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(sock)), daemon=True,
            name=self._name)
        self._thread.start()
        # Propagates a startup failure to the caller.
        self._ready.result(timeout=_LIFECYCLE_TIMEOUT_S)
        return self

    async def _start_front(self, sock: socket.socket) -> None:
        """Bring the front up on the loop (a router first attaches workers)."""
        await self._front.start(sock)

    async def _main(self, sock: socket.socket) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._start_front(sock)
        except BaseException as exc:  # noqa: BLE001 - relayed to start()
            sock.close()
            self._ready.set_exception(exc)
            return
        self._ready.set_result(self._front.port)
        await self._stop.wait()
        await self._front.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=_LIFECYCLE_TIMEOUT_S)
        self._thread = None

    def run(self, coroutine):
        """Execute a coroutine on the front's event loop (thread-safe),
        waiting at most 60 s for its result."""
        if self._loop is None:
            raise ServiceError(f"{self._name} thread is not running")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=60.0)

    @property
    def port(self) -> int:
        return self._front.port

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ThreadedServer(FrontThread):
    """A :class:`SketchServer` on its own loop thread."""

    def __init__(self, service: EstimationService, *,
                 config: ServerConfig | None = None) -> None:
        self.server = SketchServer(service, config=config)
        super().__init__(self.server)

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.config.host, self.server.port)

    @property
    def service(self) -> EstimationService:
        return self.server.service
