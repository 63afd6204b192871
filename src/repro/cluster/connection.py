"""One pipelined asyncio connection from the router to a worker.

:class:`WorkerLink` mirrors what :class:`~repro.client.ServiceClient` does
synchronously: because a sketch server answers **in request order**, a
single connection pipelines — writes append a future to a FIFO, one reader
task resolves futures as reply frames arrive.  The router keeps exactly one
link per worker and multiplexes every scatter over it; a connection loss
fails all in-flight futures with
:class:`~repro.errors.ConnectionLostError` so the health checker can react.

On connect a link offers the binary frame handshake
(:mod:`repro.server.wire`) and falls back to NDJSON against a worker that
refuses it (one started with ``--no-binary-wire``).  Router↔worker traffic
is where the binary format pays the most — box fan-out, partial-state
gathers and replica bootstrap all cross this hop.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import ConnectionLostError, DegradedError, ServerError
from repro.server import protocol, wire


class WorkerLink:
    """A persistent, pipelining connection to one worker server."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 60.0, token: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.token = token  # admin token binding the link on connect
        self._mode = "ndjson"
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

    @property
    def mode(self) -> str:
        """The wire format this link actually negotiated."""
        return self._mode

    # -- lifecycle ----------------------------------------------------------------

    async def connect(self) -> "WorkerLink":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=protocol.MAX_LINE_BYTES)
        self._closed = False
        self._mode = wire.WIRE_NDJSON
        # Negotiation and authentication both run inline, before the reader
        # task exists: their replies are the only frames ever read outside
        # the read loop, so the loop starts with the connection already in
        # its final format and (when tenancy is on) already authenticated.
        try:
            await self._negotiate()
            if self.token is not None:
                await self._authenticate()
        except BaseException:
            await self.close()
            raise
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def _negotiate(self) -> None:
        assert self._reader is not None and self._writer is not None
        self._writer.write(protocol.encode(
            wire.hello_payload(wire.WIRE_BINARY)))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionLostError(
                f"worker {self.address} closed the connection during the "
                "wire handshake")
        if protocol.decode(line).get("ok"):
            self._mode = wire.WIRE_BINARY

    async def _authenticate(self) -> None:
        assert self._reader is not None and self._writer is not None
        self._writer.write(wire.encode_frame(
            protocol.build("auth", token=self.token), self._mode))
        await self._writer.drain()
        if self._mode == wire.WIRE_BINARY:
            reply, _ = await wire.read_binary_frame(self._reader,
                                                    protocol.MAX_LINE_BYTES)
        else:
            line = await self._reader.readline()
            if not line:
                raise ConnectionLostError(
                    f"worker {self.address} closed the connection during "
                    "authentication")
            reply = protocol.decode(line)
        protocol.raise_for_response(reply)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                if self._mode == wire.WIRE_BINARY:
                    reply, _ = await wire.read_binary_frame(
                        self._reader, protocol.MAX_LINE_BYTES)
                else:
                    line = await self._reader.readline()
                    if not line:
                        raise ConnectionLostError(
                            f"worker {self.address} closed the connection")
                    reply = protocol.decode(line)
                if self._pending:
                    future = self._pending.popleft()
                    # A future may already be cancelled (request timeout);
                    # its in-order reply still had to be consumed to keep
                    # later replies aligned with later futures.
                    if not future.done():
                        future.set_result(reply)
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
            self._writer.write(wire.encode_frame(payload, self._mode))
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
        return f"WorkerLink({self.address}, {state}, wire={self._mode})"
