"""Server processes for one run: spawn, set up, sample, tear down.

Every process the benchmark starts and every directory it creates belongs
to one :class:`Fleet`; leaving the ``with`` block — normally, on an
exception or on ``KeyboardInterrupt`` — terminates the processes, waits
for them and removes the directory.  Ports come from the ``--listen
127.0.0.1:0`` banners.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.client import ServiceClient
from repro.server import protocol

from benchmarks.e2e import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: the documented ``serve`` defaults, pinned so a run always measures the
#: same configuration.
MAX_BATCH = 64
MAX_DELAY_MS = 2.0
SERVE_FLAGS = ("--shards", "4", "--max-batch", str(MAX_BATCH),
               "--max-delay-ms", str(MAX_DELAY_MS))
ROUTED_WORKERS = 2
BANNER_TIMEOUT = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Fleet:
    """One server — or a router in front of ``ROUTED_WORKERS`` durable workers."""

    def __init__(self, *, routed: bool) -> None:
        self.routed = routed
        self.processes: list[subprocess.Popen] = []
        self.worker_ports: list[int] = []
        self.port = 0
        self.directory: str | None = None
        self.client: ServiceClient | None = None

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self, *args: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
        assert self.directory is not None
        log = open(os.path.join(self.directory,
                                f"stderr-{len(self.processes)}.log"), "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args], env=env,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL)
        finally:
            log.close()
        self.processes.append(process)
        return process

    def _banner_port(self, process: subprocess.Popen) -> int:
        assert process.stdout is not None
        ready, _, _ = select.select([process.stdout], [], [], BANNER_TIMEOUT)
        line = process.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server process printed no banner: "
                               + self.stderr_tail())
        return int(str(json.loads(line)["listening"]).rsplit(":", 1)[1])

    def start(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="run-", dir=OUT)
        count = ROUTED_WORKERS if self.routed else 1
        servers = [self._spawn(
            "serve", "--listen", "127.0.0.1:0", *SERVE_FLAGS, "--wal-dir",
            os.path.join(self.directory, f"wal-{index}"), "--wal-sync", "flush")
            for index in range(count)]
        ports = [self._banner_port(process) for process in servers]
        if not self.routed:
            self.port = ports[0]
            return
        self.worker_ports = ports
        workers = [arg for port in ports
                   for arg in ("--worker", f"127.0.0.1:{port}")]
        self.port = self._banner_port(self._spawn(
            "cluster", "route", "--listen", "127.0.0.1:0", *workers))

    def stderr_tail(self) -> str:
        if self.directory is None:
            return ""
        tails = []
        for path in sorted(Path(self.directory).glob("stderr-*.log")):
            text = path.read_text(errors="replace").strip()
            if text:
                tails.append(f"{path.name}: {text[-2000:]}")
        return "\n".join(tails)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self.processes.clear()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    # -- sampling -------------------------------------------------------------------

    def connect(self, port: int | None = None) -> ServiceClient:
        return ServiceClient("127.0.0.1", port or self.port, wire="binary",
                             timeout=120.0)

    def service_ports(self) -> list[int]:
        """Ports of the processes that hold an ``EstimationService``."""
        return self.worker_ports if self.routed else [self.port]

    def cpu_seconds(self) -> float:
        """utime + stime summed over every server-side process."""
        total = 0
        for process in self.processes:
            with open(f"/proc/{process.pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for process in self.processes:
            with open(f"/proc/{process.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0


def request_all(client: ServiceClient, payloads) -> list[dict]:
    """One pipelined window; any refused or failed reply raises."""
    return [protocol.raise_for_response(reply)
            for reply in client.request_many(list(payloads))]


def set_up(plan: wl.Plan) -> tuple[Fleet, float]:
    """One complete set-up, timed: spawn, banner, connect, register, preload
    over the wire, flush, first estimate of every estimator (view build).

    The caller owns the returned fleet (``with fleet: ...``).
    """
    start = time.perf_counter()
    fleet = Fleet(routed=plan.routed)
    try:
        fleet.start()
        client = fleet.client = fleet.connect()
        for name, family, sketch_seed in wl.ESTIMATORS:
            client.register(name, family=family, sizes=(wl.SIZE, wl.SIZE),
                            instances=wl.INSTANCES, seed=sketch_seed)
        for name, side, rows in plan.preload:
            request_all(client, [
                wl.ingest_payload(name, side, rows[at:at + wl.FRAME_BOXES])
                for at in range(0, len(rows), wl.FRAME_BOXES)])
        client.flush()
        request_all(client, [wl.estimate_payload("rq", plan.probes[0]),
                             wl.estimate_payload("rj"),
                             wl.estimate_payload("cj")])
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - start
