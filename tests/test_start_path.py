"""A fleet starts side by side, and a front's start path loads what it serves.

Counted checks, so they repeat on a noisy guest: process-start order against
banner reads (never a timing), ``sys.modules`` at the banner and once the
front answers (never an import time), the stderr of a worker that died
before or after its banner, and each such end under a deadline.
"""

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.client import ServiceClient
from repro.cluster import fleet
from repro.errors import ReproError, ServiceError
from repro.server import ThreadedServer
from repro.service import EstimationService

SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- fleets start side by side ------------------------------------------------------


class _FakeProcess:
    """A ``Popen`` stand-in that logs when it is created and first read."""

    def __init__(self, events, port):
        events.append("popen")
        self._events, self._port = events, port
        self.stdout, self.stderr = self, ()
        self.returncode = None

    def readline(self):
        self._events.append("banner")
        return json.dumps({"listening": f"127.0.0.1:{self._port}"}) + "\n"

    def poll(self):
        return self.returncode

    def terminate(self):
        self.returncode = 0

    def wait(self, timeout=None):
        return self.returncode


def test_every_worker_process_exists_before_the_first_banner_is_read(
        monkeypatch):
    events = []
    ports = iter(range(7100, 7200))
    monkeypatch.setattr(
        fleet.subprocess, "Popen",
        lambda *args, **kwargs: _FakeProcess(events, next(ports)))
    with fleet.LocalFleet(4) as started:
        assert events == ["popen"] * 4 + ["banner"] * 4
        assert started.addresses() == [("127.0.0.1", 7100 + i)
                                       for i in range(4)]
        # spawn_worker keeps its signature and still waits for its own banner.
        extra = started.spawn_extra(shards=2)
        assert events[-2:] == ["popen", "banner"] and extra.port == 7104
    workers = fleet.spawn_workers([dict(shards=1), dict(shards=2)])
    assert events[-4:] == ["popen", "popen", "banner", "banner"]
    assert [worker.address for worker in workers] == ["127.0.0.1:7105",
                                                     "127.0.0.1:7106"]


@pytest.mark.e2e
def test_a_worker_that_dies_before_its_banner_says_why(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("a file where the WAL directory should go")
    with pytest.raises(ServiceError) as info:
        fleet.spawn_worker(wal_dir=str(blocker / "wal"))
    message = str(info.value)
    assert "exited before announcing its port: " in message
    assert "not-a-directory" in message  # the child's own stderr, carried
    # One bad worker takes the side-by-side fleet down with it, cleanly.
    with pytest.raises(ServiceError, match="exited before announcing"):
        fleet.spawn_workers([dict(), dict(wal_dir=str(blocker / "wal"))])


# -- the start path loads what it serves --------------------------------------------

#: Run a CLI verb and report, on stderr, the ``repro`` modules loaded (and
#: whether NumPy is) twice: at its banner, and once the front has answered
#: a ``ping`` sent at the banner.  Then stop the front the way an operator
#: would.  The ping goes over a plain socket: the client library is itself
#: something a serving process never loads.
_TAP = textwrap.dedent("""
    import json, os, signal, socket, sys, threading

    def report():
        loaded = sorted(name for name in sys.modules
                        if name.split(".")[0] == "repro")
        sys.stderr.write(json.dumps({"repro": loaded,
                                     "numpy": "numpy" in sys.modules}) + "\\n")

    def ping(port):
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(b'{"op": "ping"}\\n')
            reply = sock.makefile("rb").readline()
        assert json.loads(reply)["ok"], reply
        report()
        os.kill(os.getpid(), signal.SIGTERM)

    class Tap:
        def __init__(self, real):
            self.real, self.done = real, False
        def write(self, text):
            if not self.done and '"listening"' in text:
                self.done = True
                report()
                port = int(json.loads(text)["listening"].rsplit(":", 1)[1])
                threading.Thread(target=ping, args=(port,), daemon=True).start()
            return self.real.write(text)
        def flush(self):
            self.real.flush()

    sys.stdout = Tap(sys.stdout)
    from repro.cli import main
    sys.exit(main(sys.argv[1:]))
""")

#: What a serving process never runs: the data generators, the figure
#: harness, the query engine, the client library, the loop-thread runners
#: of tests and demos.
NOT_SERVED = ("repro.data", "repro.experiments", "repro.engine", "repro.client",
              "repro.server.runner", "repro.cluster.runner")

#: What a router never runs: the local service and its snapshots, ingest,
#: synthetic data and view deltas, the local server, the fleet spawner.
NOT_ROUTED = ("repro.service.service", "repro.service.snapshot",
              "repro.server.server", "repro.service.ingest",
              "repro.service.driver", "repro.service.delta", "repro.cluster.fleet")

#: All that a front has loaded when it announces its port.
AT_THE_BANNER = ["repro", "repro.cli", "repro.errors", "repro.version"]


def _modules_at_banner_and_ping(*arguments) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    done = subprocess.run([sys.executable, "-c", _TAP, *arguments], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    banner, served = map(json.loads, done.stderr.strip().splitlines()[-2:])
    return banner, served


def _assert_lean(loaded: list[str]) -> None:
    for prefix in NOT_SERVED:
        dragged = [name for name in loaded
                   if name == prefix or name.startswith(prefix + ".")]
        assert not dragged, f"{prefix} is loaded once serving: {dragged}"


@pytest.mark.e2e
def test_serve_and_cluster_route_load_what_they_serve(tmp_path):
    worker = fleet.spawn_worker()
    try:
        serve = _modules_at_banner_and_ping(
            "serve", "--listen", "127.0.0.1:0", "--wal-dir",
            str(tmp_path / "wal"))
        route = _modules_at_banner_and_ping(
            "cluster", "route", "--listen", "127.0.0.1:0", "--worker",
            worker.address)
    finally:
        worker.stop()
    # (a) At the banner: the port is bound, and no NumPy and no serving
    # stack is loaded yet.
    for banner, _ in (serve, route):
        assert banner == {"repro": AT_THE_BANNER, "numpy": False}
    # (b) Once the front answers: what it serves, and nothing else.
    served, routed = serve[1]["repro"], route[1]["repro"]
    _assert_lean(served)
    _assert_lean(routed)
    assert "repro.server.server" in served and "repro.wal.writer" in served
    assert "repro.cluster.router" in routed
    assert "repro.cluster.router" not in served
    assert sorted(set(NOT_ROUTED) & set(routed)) == []


def test_import_repro_loads_no_numpy():
    """Its re-exports load on first use (``tests/test_exports.py`` checks
    that each one resolves)."""
    probe = "import sys, repro; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_a_front_bound_by_the_helper_sets_tcp_nodelay_on_its_connections():
    """asyncio sets ``TCP_NODELAY`` on an accepted connection only when the
    listening socket's protocol is ``IPPROTO_TCP``; without it each
    pipelined window waits out the peer's delayed ACK."""
    with ThreadedServer(EstimationService(num_shards=1)) as handle, \
            ServiceClient("127.0.0.1", handle.port, timeout=30) as client:
        assert client.ping()["ok"]

        async def nodelay() -> list[int]:
            return [writer.get_extra_info("socket").getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)
                for writer in handle.server._connections]

        flags = handle.run(nodelay())
    assert len(flags) == 1 and flags[0] != 0


# -- a start that fails after the banner --------------------------------------------


def _serve(*arguments) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0",
         *arguments], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def _banner_port(process: subprocess.Popen) -> int:
    ready, _, _ = select.select([process.stdout], [], [], 60)
    assert ready, "no banner within 60 s"
    return int(json.loads(process.stdout.readline())["listening"]
               .rsplit(":", 1)[1])


def _ended(process: subprocess.Popen) -> tuple[int, str]:
    """The exit status and stderr of a process that must end within 60 s."""
    try:
        _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait(timeout=30)
    return process.returncode, stderr


@pytest.mark.e2e
def test_a_load_that_fails_after_the_banner_says_why_and_hangs_no_client(
        tmp_path):
    corrupt = tmp_path / "corrupt.sketch"
    corrupt.write_bytes(b"not a snapshot")
    process = _serve("--snapshot", str(corrupt))
    port = _banner_port(process)
    # Connected at the banner, while the process loads: the connection waits
    # in the listen backlog, and the failed load ends it with a typed error
    # (a reset, then a refused reconnect), well before the read deadline.
    client = ServiceClient("127.0.0.1", port, timeout=60)
    with client, pytest.raises((ReproError, ConnectionError)):
        client.ping()
    status, stderr = _ended(process)
    assert status == 1
    assert "error: not a binary snapshot (bad magic bytes)" in stderr
    assert "Traceback" not in stderr


@pytest.mark.e2e
def test_a_router_attach_to_a_worker_whose_load_fails_names_the_worker(
        tmp_path):
    from repro.cluster import ClusterRouter

    corrupt = tmp_path / "corrupt.sketch"
    corrupt.write_bytes(b"not a snapshot")
    process = _serve("--snapshot", str(corrupt))
    port = _banner_port(process)

    async def attach() -> None:
        router = ClusterRouter()
        try:
            await router.attach("w0", "127.0.0.1", port)
        finally:
            await router.close()

    try:
        with pytest.raises(ReproError, match=f"worker 127.0.0.1:{port}"):
            asyncio.run(asyncio.wait_for(attach(), 60))
    finally:
        status, _ = _ended(process)
    assert status == 1


@pytest.mark.e2e
@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_sigterm_while_loading_ends_the_process_and_saves_nothing(tmp_path):
    snapshot = tmp_path / "never.sketch"
    process = _serve("--snapshot", str(snapshot), "--save-on-exit")
    _banner_port(process)
    process.send_signal(signal.SIGTERM)
    status, stderr = _ended(process)
    assert status == 0, stderr
    assert "Traceback" not in stderr
    assert not snapshot.exists()


def test_synthetic_boxes_stays_importable_without_the_data_package():
    probe = ("import sys; from repro.service import synthetic_boxes; "
             "print(any(m.startswith('repro.data') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_the_engine_loads_no_serving_module():
    """The engine keeps its join sketches as plain estimators: importing it
    starts none of the service, server, cluster or WAL layers."""
    probe = ("import json, sys, repro.engine; print(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[:2] in (['repro', 'service'], "
             "['repro', 'server'], ['repro', 'cluster'], ['repro', 'wal']))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
