"""Spawn local worker subprocesses for a cluster.

The CLI's ``cluster serve``, the cluster benchmark, and the demo all need
the same primitive: start ``repro.cli serve --listen 127.0.0.1:0`` in a
subprocess, parse the JSON banner it prints for the bound port, and tear
it down afterwards.  :func:`spawn_worker` does one, :func:`spawn_workers`
N side by side; :class:`LocalFleet` manages N as a context manager.

A worker prints its banner once its port is bound, before it loads NumPy
and the serving stack or recovers its state, so a router starts while its
workers load (what it sends meanwhile waits in the listen backlog).  A
worker whose load fails after its banner exits 1, failing its connections.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ServiceError

#: Seconds :meth:`WorkerProcess.stop` waits for the process to exit after
#: SIGTERM, and again after SIGKILL.
_STOP_TIMEOUT_S = 30.0


def _worker_env() -> dict[str, str]:
    """A subprocess environment that can ``import repro`` like we can."""
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (package_root + os.pathsep + existing
                         if existing else package_root)
    return env


@dataclass
class WorkerProcess:
    """One spawned worker: the subprocess plus its bound address."""

    process: subprocess.Popen
    host: str
    port: int = 0  # known once the banner is read
    #: What the worker announced at bind time: ``listening``, ``max_batch``,
    #: ``max_queue`` and, with a WAL, ``wal: {dir, sync}``.  Its estimators
    #: and WAL recovery report are in the ``stats`` reply.
    banner: dict = field(default_factory=dict)
    #: The last lines the worker wrote to stderr (kept for diagnosis; a
    #: reader thread drains the pipe, so a chatty worker never blocks on it).
    stderr_tail: deque = field(default_factory=lambda: deque(maxlen=40))

    def __post_init__(self) -> None:
        self._drain = threading.Thread(target=self.stderr_tail.extend,
                                       args=(self.process.stderr,), daemon=True)
        self._drain.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            self.process.kill()
            self.process.wait(timeout=_STOP_TIMEOUT_S)

    def _await_banner(self) -> "WorkerProcess":
        """Block until the worker announces its port; a worker that exits
        first is an error carrying the tail of what it wrote to stderr."""
        line = self.process.stdout.readline()
        if not line:  # stdout hit EOF: the worker is gone
            self.stop()
            self._drain.join(timeout=30)  # its stderr ends with it
            tail = "".join(self.stderr_tail).strip()
            raise ServiceError("worker subprocess exited before announcing "
                               "its port" + (f": {tail[-2000:]}" if tail else ""))
        try:
            self.banner = json.loads(line)
            self.port = int(str(self.banner["listening"]).rsplit(":", 1)[1])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            self.stop()
            raise ServiceError(f"malformed worker banner {line!r}: {exc}") from exc
        return self


def _launch(*, host: str = "127.0.0.1", extra_args: tuple[str, ...] = (),
            **flags) -> WorkerProcess:
    """Start a worker process (keywords: see :func:`spawn_worker`; each one
    set is the ``serve`` flag of its name) without waiting for its banner."""
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--listen", f"{host}:0"]
    for name, value in flags.items():
        if value is not None:
            command += ["--" + name.replace("_", "-"), str(value)]
    process = subprocess.Popen(command + list(extra_args),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               env=_worker_env(), text=True)
    return WorkerProcess(process=process, host=host)


def spawn_worker(*, snapshot: str | None = None, shards: int = 4,
                 host: str = "127.0.0.1", wal_dir: str | None = None,
                 wal_sync: str | None = None,
                 extra_args: tuple[str, ...] = ()) -> WorkerProcess:
    """Start one ``serve --listen`` worker subprocess on a free port.

    ``wal_dir`` makes the worker durable (``serve --wal-dir``): it
    recovers from the directory on start and write-ahead-logs every
    ingest; ``wal_sync`` picks the flush discipline (none/flush/fsync).
    """
    return _launch(**locals())._await_banner()


def spawn_workers(configs: Sequence[dict]) -> list[WorkerProcess]:
    """One worker per :func:`spawn_worker` keyword dict, started **side by
    side**: every process exists before the first banner is read, so a
    fleet pays one interpreter start-up, not N in a row.  If any worker
    fails to come up, all of them are stopped."""
    workers: list[WorkerProcess] = []
    try:
        for config in configs:
            workers.append(_launch(**config))
        return [worker._await_banner() for worker in workers]
    except BaseException:
        for worker in workers:
            worker.stop()
        raise


class LocalFleet:
    """N worker subprocesses with deterministic teardown.

    ::

        with LocalFleet(3) as fleet:
            handle = ThreadedClusterRouter(fleet.addresses())
            ...
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ServiceError("a fleet needs at least one worker")
        self.count = int(count)
        self.workers: list[WorkerProcess] = []

    def start(self) -> "LocalFleet":
        self.workers += spawn_workers([{}] * self.count)
        return self

    def spawn_extra(self, **overrides) -> WorkerProcess:
        """One more worker (e.g. an empty process to bootstrap as replica)."""
        worker = spawn_worker(**overrides)
        self.workers.append(worker)
        return worker

    def addresses(self) -> list[tuple[str, int]]:
        return [(worker.host, worker.port) for worker in self.workers]

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
