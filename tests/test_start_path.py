"""A fleet starts side by side, and a front's start path loads what it serves.

Counted checks, so they repeat on a noisy guest: process-start order against
banner reads (never a timing), ``sys.modules`` at the banner (never an
import time), and the stderr tail of a worker that died before its banner.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster import fleet
from repro.errors import ServiceError

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

#: Run a CLI verb until its banner, report the ``repro`` modules loaded at
#: that moment on stderr, then stop the front the way an operator would.
_TAP = textwrap.dedent("""
    import json, os, signal, sys

    class Tap:
        def __init__(self, real):
            self.real, self.done = real, False
        def write(self, text):
            if not self.done and '"listening"' in text:
                self.done = True
                loaded = sorted(name for name in sys.modules
                                if name.split(".")[0] == "repro")
                sys.stderr.write(json.dumps(loaded) + "\\n")
                os.kill(os.getpid(), signal.SIGTERM)
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


def _modules_at_banner(*arguments) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    done = subprocess.run([sys.executable, "-c", _TAP, *arguments], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def _assert_lean(loaded: list[str]) -> None:
    for prefix in NOT_SERVED:
        dragged = [name for name in loaded
                   if name == prefix or name.startswith(prefix + ".")]
        assert not dragged, f"{prefix} is loaded at the banner: {dragged}"


@pytest.mark.e2e
def test_serve_and_cluster_route_load_what_they_serve(tmp_path):
    worker = fleet.spawn_worker()
    try:
        served = _modules_at_banner("serve", "--listen", "127.0.0.1:0",
                                    "--wal-dir", str(tmp_path / "wal"))
        routed = _modules_at_banner("cluster", "route", "--listen",
                                    "127.0.0.1:0", "--worker", worker.address)
    finally:
        worker.stop()
    _assert_lean(served)
    _assert_lean(routed)
    assert "repro.server.server" in served and "repro.wal.writer" in served
    assert "repro.cluster.router" in routed
    assert "repro.cluster.router" not in served


def test_synthetic_boxes_stays_importable_without_the_data_package():
    probe = ("import sys; from repro.service import synthetic_boxes, "
             "StreamDriver; "
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
