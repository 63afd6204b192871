"""Run a :class:`SketchServer` on a dedicated event-loop thread.

The asyncio server wants to own its loop; synchronous callers (the CLI's
offline paths, tests, benchmarks, notebook users) want a handle they can
start, query for the bound port, and stop.  :class:`ThreadedServer` bridges
the two: it spins up a daemon thread running ``asyncio``, starts the
server, and exposes a thread-safe :meth:`stop`.

::

    with ThreadedServer(service) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        ...
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

from repro.errors import ServiceError
from repro.server.server import ServerConfig, SketchServer
from repro.service.service import EstimationService


class ThreadedServer:
    """Owns one server plus the background thread driving its event loop."""

    def __init__(self, service: EstimationService, *,
                 config: ServerConfig | None = None,
                 snapshot_path: str | None = None) -> None:
        self.server = SketchServer(service, config=config,
                                   snapshot_path=snapshot_path)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready: concurrent.futures.Future = concurrent.futures.Future()

    # -- lifecycle ----------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "ThreadedServer":
        if self._thread is not None:
            raise ServiceError("server thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="sketch-server-loop")
        self._thread.start()
        # Propagates a startup failure (e.g. port in use) to the caller.
        self._ready.result(timeout=timeout)
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - relayed to start()
            self._ready.set_exception(exc)
            return
        self._ready.set_result(self.server.port)
        await self._stop.wait()
        await self.server.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        self._thread = None

    # -- conveniences -------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.config.host, self.server.port)

    @property
    def service(self) -> EstimationService:
        return self.server.service

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
