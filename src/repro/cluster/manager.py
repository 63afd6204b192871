"""Cluster topology: registration, heartbeats, replicas, degraded mode.

:class:`ClusterManager` owns the worker table.  Two worker roles exist:

* **shard** workers own a share of the data: the router splits each
  ingest frame over them, sorted by name, with the store's shard hash,
* **replica** workers mirror one shard worker (``replica_of``): every
  write fanned to the shard worker also goes to its replicas — linear
  sketches make replicas *bit-identical* mirrors, so reads round-robin
  across the whole owner group.

New replicas bootstrap over the wire: the manager fetches the source
worker's binary v2 snapshot (``snapshot`` with ``fetch: true``) and ships
it into the fresh worker (``reload`` with inline ``data``) — no shared
filesystem needed; the replica joins the owner group's writers only once
it holds the snapshot.  A heartbeat loop pings every worker; after
``max_failures`` consecutive misses a worker is marked unhealthy, taking
it out of read/write fan-outs (degraded mode) until it is replaced via
:meth:`ClusterManager.replace_worker`.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass

from repro.cluster.connection import WorkerLink
from repro.errors import ReproError, ServiceError
from repro.server import protocol
from repro.server.front import WriteGate


@dataclass
class WorkerInfo:
    """One worker's identity, role, link and health."""

    name: str
    host: str
    port: int
    link: WorkerLink
    role: str = "shard"
    replica_of: str | None = None
    healthy: bool = True
    failures: int = 0
    generation: int = 0  # bumped by replace_worker

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def owner(self) -> str:
        """The name of the owner group this worker serves."""
        return self.replica_of if self.replica_of is not None else self.name


#: Seconds between two heartbeat rounds.
HEARTBEAT_INTERVAL_S = 1.0
#: Missed pings in a row that take a worker out of rotation.
HEARTBEAT_MAX_FAILURES = 3
#: Seconds one heartbeat ping may take.
HEARTBEAT_TIMEOUT_S = 5.0


class ClusterManager:
    """Topology and health of one worker fleet."""

    def __init__(self, *, request_timeout: float = 60.0,
                 worker_token: str | None = None) -> None:
        self.request_timeout = request_timeout
        #: Admin token presented on every worker link when the fleet runs
        #: with tenancy enforced (workers started with --admin-token).
        self.worker_token = worker_token
        self._workers: dict[str, WorkerInfo] = {}
        self._round_robin: dict[str, int] = {}
        self._gates: dict[str, WriteGate] = {}
        self._heartbeat_task: asyncio.Task | None = None

    # -- membership ---------------------------------------------------------------

    def worker(self, name: str) -> WorkerInfo:
        try:
            return self._workers[name]
        except KeyError as exc:
            raise ServiceError(f"unknown worker {name!r}; known: "
                               f"{sorted(self._workers)}") from exc

    def workers(self) -> list[WorkerInfo]:
        return [self._workers[name] for name in sorted(self._workers)]

    def __contains__(self, name: str) -> bool:
        return name in self._workers

    def __len__(self) -> int:
        return len(self._workers)

    async def _connect(self, host: str, port: int, *,
                       data: str | bytes | None = None) -> WorkerLink:
        """A pinged link to one worker process, with ``data`` (snapshot
        bytes, raw or base64) reloaded into it when given."""
        link = WorkerLink(host, port, timeout=self.request_timeout,
                          token=self.worker_token)
        try:
            await link.connect()
            # A worker announces its port before it loads, so this first
            # ping waits as long as any request, not a heartbeat's timeout.
            await link.request_ok({"op": "ping"})
            if data is not None:
                await link.request_ok(protocol.build("reload", data=data))
        except BaseException:
            await link.close()
            raise
        return link

    async def add_worker(self, name: str, host: str, port: int, *,
                         replica_of: str | None = None,
                         data: str | bytes | None = None) -> WorkerInfo:
        """Connect, health-check and register one worker: a shard worker,
        or a replica of ``replica_of`` (``data`` reloaded into it first)."""
        if name in self._workers:
            raise ServiceError(f"worker {name!r} is already registered")
        info = WorkerInfo(name=name, host=host, port=int(port),
                          link=await self._connect(host, port, data=data),
                          role="shard" if replica_of is None else "replica",
                          replica_of=replica_of)
        self._workers[name] = info
        return info

    async def replace_worker(self, name: str, host: str, port: int) -> WorkerInfo:
        """Point a (typically dead) worker name at a replacement process.

        The partition is keyed by *name*, so replacing keeps every
        worker's share of ingest — no data movement on the surviving
        workers.  The replacement reloads the snapshot of a healthy member
        of its owner group, else keeps what it started with.  Writes to the
        group wait from that fetch until the replacement is live, so none
        lands between the two.
        """
        old = self.worker(name)
        async with self._gate(old.owner).hold():
            source = next((info.name for info in self.writers(old.owner)
                           if info.name != name), None)
            data = None if source is None else await self.fetch_snapshot(source)
            link = await self._connect(host, port, data=data)
            await old.link.close()
            fresh = WorkerInfo(name=name, host=host, port=int(port), link=link,
                               role=old.role, replica_of=old.replica_of,
                               generation=old.generation + 1)
            self._workers[name] = fresh
        return fresh

    # -- replica bootstrap --------------------------------------------------------

    async def fetch_snapshot(self, source: str) -> bytes:
        """A worker's binary v2 snapshot as raw bytes (worker links speak
        binary), ready for ``reload``/:meth:`replace_worker`."""
        reply = await self.worker(source).link.request_ok(
            protocol.build("snapshot", fetch=True))
        return reply["data"]

    def _gate(self, owner: str) -> WriteGate:
        return self._gates.setdefault(owner, WriteGate())

    def writing(self, owner: str):
        """Enter around one write to ``owner``'s group: it waits while a
        member of the group is bootstrapped or replaced."""
        return self._gate(owner).write()

    @contextlib.asynccontextmanager
    async def writing_everywhere(self):
        """Enter every owner group's write gate, around a broadcast that
        changes what the workers serve (a name, a tenant): a member joining
        meanwhile gets the change in its snapshot or in the broadcast."""
        async with contextlib.AsyncExitStack() as stack:
            for info in self.workers():
                if info.role == "shard":
                    await stack.enter_async_context(self.writing(info.name))
            yield

    async def bootstrap_replica(self, name: str, host: str, port: int, *,
                                source: str) -> WorkerInfo:
        """Attach a fresh worker as a read replica of ``source``.

        The source's snapshot is fetched over the wire and reloaded into
        the new worker, which then joins the owner group's write fan-out
        as a bit-identical mirror.  Writes to the group wait from the
        fetch until then; other groups keep flowing.
        """
        source_info = self.worker(source)
        if source_info.role != "shard":
            raise ServiceError(
                f"replicas mirror shard workers; {source!r} is a "
                f"{source_info.role}")
        async with self._gate(source).hold():
            return await self.add_worker(
                name, host, port, replica_of=source,
                data=await self.fetch_snapshot(source))

    # -- owner groups -------------------------------------------------------------

    def owner_group(self, owner: str) -> list[WorkerInfo]:
        """All registered members of one owner group (primary first)."""
        members = [info for info in self.workers() if info.owner == owner]
        return sorted(members, key=lambda info: (info.role != "shard",
                                                 info.name))

    def writers(self, owner: str) -> list[WorkerInfo]:
        """Healthy members that must all receive a write.

        Writes fan to the primary *and* every healthy replica — that is
        what keeps replicas bit-identical mirrors.  (A replica that missed
        writes while unhealthy must be replaced before rejoining.)
        """
        return [info for info in self.owner_group(owner) if info.healthy]

    def reader(self, owner: str) -> WorkerInfo | None:
        """Round-robin over the owner group's healthy members."""
        members = self.writers(owner)
        if not members:
            return None
        index = self._round_robin.get(owner, 0)
        self._round_robin[owner] = index + 1
        return members[index % len(members)]

    # -- health -------------------------------------------------------------------

    async def heartbeat_once(self) -> dict[str, bool]:
        """Ping every worker once; update health; return name -> healthy."""
        async def ping(info: WorkerInfo) -> None:
            try:
                await info.link.request_ok({"op": "ping"},
                                           timeout=HEARTBEAT_TIMEOUT_S)
            except Exception:
                info.failures += 1
                if info.failures >= HEARTBEAT_MAX_FAILURES:
                    info.healthy = False
            else:
                if info.healthy:
                    info.failures = 0
                # Once unhealthy a worker stays out — it may have missed
                # writes, so only replace_worker (which reloads a current
                # snapshot) brings a name back into rotation.  Mere ping
                # recovery cannot prove state.

        workers = self.workers()
        await asyncio.gather(*(ping(info) for info in workers))
        return {info.name: info.healthy for info in workers}

    def start_heartbeat(self) -> None:
        if self._heartbeat_task is None:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL_S)
            with contextlib.suppress(Exception):
                await self.heartbeat_once()

    async def stop_heartbeat(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
            self._heartbeat_task = None

    # -- fan-out helpers ----------------------------------------------------------

    async def broadcast(self, payload: dict) -> dict[str, dict]:
        """Send one request to every healthy worker; gather typed replies."""
        targets = [info for info in self.workers() if info.healthy]

        async def ask(info: WorkerInfo) -> tuple[str, dict]:
            return info.name, await info.link.request_ok(dict(payload))

        return dict(await asyncio.gather(*(ask(info) for info in targets)))

    async def poll(self, payload: dict) -> dict[str, dict]:
        """Ask every healthy worker at once, best effort: the replies of
        those that answered.  A failed or stalled worker is left out, and a
        stalled fleet costs one request timeout, not one per worker."""
        async def ask(info: WorkerInfo) -> tuple[str, dict | None]:
            try:
                return info.name, await info.link.request_ok(dict(payload))
            except ReproError:
                return info.name, None

        replies = await asyncio.gather(*(ask(info) for info in self.workers()
                                         if info.healthy))
        return {name: reply for name, reply in replies if reply is not None}

    # -- introspection ------------------------------------------------------------

    def status(self) -> dict:
        """A JSON-friendly topology report (the ``cluster_status`` verb)."""
        return {
            "workers": [
                {
                    "name": info.name,
                    "address": info.address,
                    "role": info.role,
                    "replica_of": info.replica_of,
                    "healthy": info.healthy,
                    "failures": info.failures,
                    "generation": info.generation,
                }
                for info in self.workers()
            ],
            "healthy_workers": sum(info.healthy for info in self.workers()),
        }

    async def close(self) -> None:
        await self.stop_heartbeat()
        for info in self.workers():
            await info.link.close()
        self._workers.clear()
