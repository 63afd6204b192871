"""Crash-injection tests: ``kill -9`` a durable worker, recover, compare.

The durability claim under test: after a hard kill (SIGKILL — no atexit,
no flush, no goodbye), restarting a worker on the same ``--wal-dir``
yields a service **bit-identical** to a never-crashed twin fed exactly
the durable record stream.  With ``--wal-sync flush`` (or ``fsync``)
every *acknowledged* ingest is durable; with ``none`` a crash may lose a
buffered tail, but recovery must still land on a clean record prefix —
never a torn or corrupted state.

CI runs this file as a matrix over seeds and sync modes via the
``DURABILITY_SEED`` / ``DURABILITY_WAL_SYNC`` environment variables, and
uploads the WAL directory as an artifact (``DURABILITY_ARTIFACT_DIR``)
when an assertion fails.
"""

import os
import shutil
import signal
import threading
import time

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster.fleet import spawn_worker
from repro.core.domain import Domain
from repro.errors import ServerError
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService
from repro.wal import decode_payload, read_wal, recover_service

pytestmark = pytest.mark.e2e

DOMAIN = Domain.square(256, dimension=2)
SEED = int(os.environ.get("DURABILITY_SEED", "0"))
SYNC = os.environ.get("DURABILITY_WAL_SYNC", "flush")
#: Acked ingests are durable under these modes even across SIGKILL.
ACK_IS_DURABLE = SYNC in ("flush", "fsync")


def batch(seed: int, count: int = 64) -> BoxSet:
    rng = np.random.default_rng(seed)
    lows = rng.integers(0, 256, size=(count, 2), dtype=np.int64)
    extents = rng.integers(0, 32, size=(count, 2), dtype=np.int64)
    highs = np.minimum(lows + extents, 255)
    return BoxSet(np.minimum(lows, highs), highs)


def queries(seed: int, count: int = 16) -> list[BoxSet]:
    return [batch(10_000 + seed * 100 + index, 1) for index in range(count)]


def export_artifacts(wal_dir) -> None:
    """Copy the WAL directory somewhere CI can upload it."""
    target = os.environ.get("DURABILITY_ARTIFACT_DIR")
    if target:
        dest = os.path.join(target, f"seed{SEED}-{SYNC}-{os.path.basename(wal_dir)}")
        shutil.copytree(wal_dir, dest, dirs_exist_ok=True)


class TestKillNineRecovery:
    def test_recovery_matches_never_crashed_twin(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
        acked = 0
        try:
            with ServiceClient(worker.host, worker.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=32, seed=5)
                for index in range(6):
                    client.ingest("ranges", batch(SEED * 1000 + index),
                                  side="data")
                    acked += 1
                    if index == 2:
                        # A frame the flush could not apply is refused
                        # whole before the log; recovery never sees it.
                        good = batch(SEED * 1000 + 99)
                        highs = good.highs.copy()
                        highs[0, 0] = 256
                        refused = BoxSet(good.lows, highs)
                        with pytest.raises(ServerError) as info:
                            client.ingest("ranges", refused, side="data")
                        assert info.value.code == "bad_request"
                        logged = [decode_payload(payload)
                                  for _, payload in read_wal(wal_dir)[0]]
                        assert not any(
                            (event["rows"] >= 256).any() for event in logged
                            if event["type"] == "update")
                        if ACK_IS_DURABLE:
                            assert len(logged) == 1 + acked

                # Keep ingesting from a thread and SIGKILL mid-stream, so
                # the log likely ends in a torn record.
                stop = threading.Event()

                def hammer():
                    index = 100
                    while not stop.is_set():
                        try:
                            client.ingest("ranges",
                                          batch(SEED * 1000 + index),
                                          side="data")
                        except Exception:
                            return
                        index += 1

                thread = threading.Thread(target=hammer, daemon=True)
                thread.start()
                time.sleep(0.25)
                os.kill(worker.process.pid, signal.SIGKILL)
                stop.set()
                thread.join(timeout=30)
            worker.process.wait(timeout=30)

            # The never-crashed twin: replay the durable record stream
            # into a fresh in-process service.  (This also truncates any
            # torn tail, exactly as a restarted server would.)
            twin, report = recover_service(wal_dir, attach=False,
                                           num_shards=2)
            if ACK_IS_DURABLE:
                # Every acknowledged write survived the SIGKILL: one
                # register + ``acked`` update records, at least.
                assert report.last_seqno >= 1 + acked
            twin.flush()
            expected = [twin.estimate("ranges", q).estimate
                        for q in queries(SEED)]

            # Restart a worker on the crashed directory: its recovery
            # must land on the same state, bit for bit.
            revived = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            try:
                with ServiceClient(revived.host, revived.port) as client:
                    recovery = client.stats()["wal"]["recovery"]
                    assert recovery["last_seqno"] == report.last_seqno
                    got = [client.estimate("ranges", q).estimate
                           for q in queries(SEED)]
                assert got == expected
            finally:
                revived.stop()
        except BaseException:
            export_artifacts(wal_dir)
            raise
        finally:
            worker.stop()

    def test_checkpoint_then_crash_recovers_from_snapshot_plus_tail(
            self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
        try:
            with ServiceClient(worker.host, worker.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=32, seed=5)
                for index in range(4):
                    client.ingest("ranges", batch(SEED * 2000 + index),
                                  side="data")
                info = client.checkpoint()
                covered = info["wal_seqno"]
                # Post-checkpoint writes live only in the WAL tail.
                client.ingest("ranges", batch(SEED * 2000 + 50), side="data")
                if ACK_IS_DURABLE:
                    client.flush()
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.wait(timeout=30)

            if ACK_IS_DURABLE:
                survivors = [s for s, _ in read_wal(wal_dir)[0]]
                assert survivors and min(survivors) == covered + 1

            twin, report = recover_service(wal_dir, attach=False,
                                           num_shards=2)
            assert report.base_seqno == covered
            twin.flush()
            expected = [twin.estimate("ranges", q).estimate
                        for q in queries(SEED + 1)]
            revived = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            try:
                with ServiceClient(revived.host, revived.port) as client:
                    got = [client.estimate("ranges", q).estimate
                           for q in queries(SEED + 1)]
                assert got == expected
            finally:
                revived.stop()
        except BaseException:
            export_artifacts(wal_dir)
            raise
        finally:
            worker.stop()

    def test_restart_after_checkpoint_then_crash_keeps_acked_writes(
            self, tmp_path):
        """A worker restarted on a checkpointed directory logs on after the
        covered seqno, so a SIGKILL after its next ack loses nothing.  The
        reference is a fresh service fed every acked batch: a recovery twin
        would read the same log and could share its faults."""
        wal_dir = str(tmp_path / "wal")
        batches = [batch(SEED * 3000 + index) for index in range(4)]
        worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
        revived = None
        try:
            with ServiceClient(worker.host, worker.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=32, seed=5)
                for boxes in batches[:3]:
                    client.ingest("ranges", boxes, side="data")
                client.checkpoint()
            worker.stop()

            worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            with ServiceClient(worker.host, worker.port) as client:
                client.ingest("ranges", batches[3], side="data")
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.wait(timeout=30)

            def answers(fed):
                fresh = EstimationService(num_shards=2)
                fresh.register("ranges", family="range", domain=(256, 256),
                               num_instances=32, seed=5)
                for boxes in fed:
                    fresh.ingest("ranges", boxes, side="data")
                fresh.flush()
                return [fresh.estimate("ranges", q).estimate
                        for q in queries(SEED + 2)]

            revived = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            with ServiceClient(revived.host, revived.port) as client:
                got = [client.estimate("ranges", q).estimate
                       for q in queries(SEED + 2)]
            if ACK_IS_DURABLE:
                assert got == answers(batches)
            else:
                # An unsynced tail may be lost, but only as a clean prefix.
                assert got in (answers(batches), answers(batches[:3]))
        except BaseException:
            export_artifacts(wal_dir)
            raise
        finally:
            worker.stop()
            if revived is not None:
                revived.stop()

    def test_reload_of_another_snapshot_then_crash_keeps_the_reloaded_state(
            self, tmp_path):
        """A worker reloads a snapshot that is not its recovery base
        mid-stream, keeps ingesting and is SIGKILLed: the restart comes back
        to that snapshot plus the acked writes after it — a never-crashed
        twin loaded from the same file and fed the same post-reload stream,
        not the log from its start."""
        wal_dir = str(tmp_path / "wal")
        other = str(tmp_path / "other.sketch")
        donor = EstimationService(num_shards=2)
        donor.register("ranges", family="range", domain=(256, 256),
                       num_instances=32, seed=5)
        donor.ingest("ranges", batch(SEED * 4000 + 99), side="data")
        donor.save(other)
        after = [batch(SEED * 4000 + index) for index in range(4)]
        worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
        revived = None
        try:
            with ServiceClient(worker.host, worker.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=32, seed=5)
                for index in range(3):
                    client.ingest("ranges", batch(SEED * 4000 + 50 + index),
                                  side="data")
                reply = client.reload(other)
                # register + 3 ingests, numbered on by the same log.
                assert reply["wal_seqno"] == 4
                for boxes in after:
                    client.ingest("ranges", boxes, side="data")
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.wait(timeout=30)

            def answers(fed):
                twin = EstimationService.load(other, num_shards=2)
                for boxes in fed:
                    twin.ingest("ranges", boxes, side="data")
                twin.flush()
                return [twin.estimate("ranges", q).estimate
                        for q in queries(SEED + 3)]

            revived = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            with ServiceClient(revived.host, revived.port) as client:
                got = [client.estimate("ranges", q).estimate
                       for q in queries(SEED + 3)]
            if ACK_IS_DURABLE:
                assert got == answers(after)
            else:
                # An unsynced tail may be lost, but only as a clean prefix.
                assert got in [answers(after[:count])
                               for count in range(len(after) + 1)]
        except BaseException:
            export_artifacts(wal_dir)
            raise
        finally:
            worker.stop()
            if revived is not None:
                revived.stop()

    def test_ingest_racing_base_reloads_then_crash_keeps_acked_writes(
            self, tmp_path):
        """One client ingests while another reloads the recovery base over
        and over, then the worker is SIGKILLed: every acked batch is in the
        restart.  The reference is a fresh service fed the acked batches in
        order."""
        wal_dir = str(tmp_path / "wal")
        batches = [batch(SEED * 5000 + index, count=5) for index in range(40)]
        worker = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
        revived = None
        acked: list[BoxSet] = []
        failures: list[BaseException] = []
        try:
            with ServiceClient(worker.host, worker.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=32, seed=5)

            def ingest():
                with ServiceClient(worker.host, worker.port) as client:
                    for boxes in batches:
                        client.ingest("ranges", boxes, side="data")
                        acked.append(boxes)

            def reload():
                with ServiceClient(worker.host, worker.port) as client:
                    for _ in range(10):
                        client.reload()

            def run(target):
                try:
                    target()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)

            threads = [threading.Thread(target=run, args=(target,))
                       for target in (ingest, reload)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            if failures:
                raise failures[0]
            assert len(acked) == len(batches)
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.wait(timeout=30)

            revived = spawn_worker(wal_dir=wal_dir, wal_sync=SYNC, shards=2)
            with ServiceClient(revived.host, revived.port) as client:
                got = [client.estimate("ranges", q).estimate
                       for q in queries(SEED + 4)]
            fresh = EstimationService(num_shards=2)
            fresh.register("ranges", family="range", domain=(256, 256),
                           num_instances=32, seed=5)
            prefixes = []
            for boxes in acked:
                fresh.ingest("ranges", boxes, side="data")
                fresh.flush()
                prefixes.append([fresh.estimate("ranges", q).estimate
                                 for q in queries(SEED + 4)])
            if ACK_IS_DURABLE:
                assert got == prefixes[-1]
            else:
                # An unsynced tail may be lost, but only as a clean prefix.
                assert got in prefixes
        except BaseException:
            export_artifacts(wal_dir)
            raise
        finally:
            worker.stop()
            if revived is not None:
                revived.stop()
