"""One pipelined asyncio connection from the router to a worker.

:class:`WorkerLink` mirrors what :class:`~repro.client.ServiceClient` does
synchronously: because a sketch server answers **in request order**, a
single connection pipelines — writes append a future to a FIFO, one reader
task resolves futures as reply frames arrive.  The router keeps exactly one
link per worker and multiplexes every scatter over it; a connection loss
fails all in-flight futures with
:class:`~repro.errors.ConnectionLostError` so the health checker can react.

A link speaks the binary frame format (:mod:`repro.server.wire`) from its
first byte: router↔worker traffic is where it pays the most — box fan-out,
partial-state gathers and replica bootstrap all cross this hop.  A reply
over the frame bound is drained and fails only the request it answers;
the link keeps reading.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import (
    ConnectionLostError,
    DegradedError,
    FrameTooLargeError,
    ServerError,
)
from repro.server import protocol, wire


class WorkerLink:
    """A persistent, pipelining connection to one worker server."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 60.0, token: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.token = token  # admin token binding the link on connect
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: deque[asyncio.Future] = deque()
        self._closed = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._closed

    # -- lifecycle ----------------------------------------------------------------

    async def connect(self) -> "WorkerLink":
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=protocol.MAX_LINE_BYTES)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to worker {self.address}: {exc}") from exc
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())
        if self.token is not None:
            # The first request binds the link: the worker answers ``auth``
            # before it reads any frame behind it.
            try:
                await self.request_ok(protocol.build("auth", token=self.token))
            except BaseException:
                await self.close()
                raise
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                failure: FrameTooLargeError | None = None
                try:
                    reply, _ = await wire.read_binary_frame(
                        self._reader, protocol.MAX_LINE_BYTES)
                except FrameTooLargeError as exc:
                    # Drained, so the stream is still framed: only the
                    # request this reply answers fails.
                    reply, failure = {}, exc
                if self._pending:
                    future = self._pending.popleft()
                    # A future may already be cancelled (request timeout);
                    # its in-order reply still had to be consumed to keep
                    # later replies aligned with later futures.
                    if future.done():
                        continue
                    if failure is None:
                        future.set_result(reply)
                    else:
                        future.set_exception(failure)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionLostError(
                f"link to worker {self.address} was closed"))
            raise
        except Exception as exc:
            self._fail_pending(exc if isinstance(exc, ConnectionLostError)
                               else ConnectionLostError(
                                   f"worker {self.address} connection failed: "
                                   f"{exc}"))

    def _fail_pending(self, exc: Exception) -> None:
        self._closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(exc)

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(ConnectionLostError(
            f"link to worker {self.address} was closed"))

    # -- requests -----------------------------------------------------------------

    async def request(self, payload: dict,
                      timeout: float | None = None) -> dict:
        """One decoded (but unchecked) request/response round trip."""
        if self._writer is None or self._closed:
            raise ConnectionLostError(
                f"link to worker {self.address} is not connected")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Append before the first await so replies stay aligned with the
        # FIFO even when several coroutines write concurrently.
        self._pending.append(future)
        try:
            self._writer.write(wire.encode_binary(payload))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            if not future.done():
                future.set_exception(ConnectionLostError(
                    f"worker {self.address} connection failed: {exc}"))
        timeout = timeout or self.timeout
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # The link stays usable (the late reply is consumed in order);
            # the request is a cluster degradation, as a lost link is.
            raise DegradedError(
                f"worker {self.address} did not answer "
                f"{payload.get('op')!r} within {timeout} s") from None

    async def request_ok(self, payload: dict,
                         timeout: float | None = None) -> dict:
        """Round trip that raises the typed error of an ``ok: false`` reply.

        The error carries the worker's reply (``reply``), so the router can
        hand the verdict on to its own client unchanged.
        """
        reply = await self.request(payload, timeout)
        try:
            return protocol.raise_for_response(reply)
        except ServerError as exc:
            exc.reply = reply
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self.connected else "disconnected"
        return f"WorkerLink({self.address}, {state})"
