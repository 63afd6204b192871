"""Snapshot + replay recovery: the WAL threaded through service and server.

The durability contract of :mod:`repro.wal` at the service level — every
acknowledged write survives as ``snapshot + durable log tail``, replay is
bit-identical (linear sketches, integer-valued counters), checkpoints
bound the tail, and the server's ``reload`` verb keeps the same machinery
across a hot swap.
"""

import asyncio
import contextlib
import os
import threading

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.client import ServiceClient
from repro.errors import ServerError, ServiceError
from repro.geometry.boxset import BoxSet
from repro.server import ServerConfig, ThreadedServer, protocol
from repro.server.server import _snapshot_bytes
from repro.server.wire import encode_binary
from repro.service import EstimationService, synthetic_boxes, synthetic_queries
from repro.service.snapshot import snapshot_state_from_bytes
from repro.wal import WalWriter, read_wal, recover_service
from repro.wal.reader import list_segments
from repro.wal.framing import WalFormatError, encode_record
from repro.wal.writer import default_checkpoint_path

from tests.test_server import Connection, start_server

DOMAIN = Domain.square(256, dimension=2)
LATE = synthetic_boxes(DOMAIN, 25, seed=31)
#: Stands for the log's recovery base in a request of a table below.
BASE = object()


# Not durable state: "version" is a process-local cache-invalidation
# counter (restore bumps it), "wal_seqno" is a log position.
_EPHEMERAL_KEYS = {"version", "wal_seqno"}


def assert_states_equal(left, right, path=""):
    """Recursive bit-exact comparison of two snapshot state trees."""
    if isinstance(left, dict):
        keys = set(left) - _EPHEMERAL_KEYS
        assert keys == set(right) - _EPHEMERAL_KEYS, f"{path}: keys differ"
        for key in keys:
            assert_states_equal(left[key], right[key], f"{path}/{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), f"{path}: lengths differ"
        for index, (a, b) in enumerate(zip(left, right)):
            assert_states_equal(a, b, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape, path
        assert (left == right).all(), f"{path}: tensor values differ"
    else:
        assert left == right, f"{path}: {left!r} != {right!r}"


def durable_service(wal_dir=None, *, num_shards=2,
                    **writer_kwargs) -> EstimationService:
    """The two test estimators, logged to ``wal_dir`` (volatile without)."""
    service = EstimationService(num_shards=num_shards, flush_threshold=None)
    if wal_dir is not None:
        writer_kwargs.setdefault("sync", "none")
        service.attach_wal(WalWriter(wal_dir, **writer_kwargs))
    service.register("ranges", family="range", domain=DOMAIN,
                     num_instances=16, seed=5)
    service.register("join", family="rectangle", domain=DOMAIN,
                     num_instances=16, seed=7)
    return service


@contextlib.contextmanager
def served(service):
    """A threaded server over ``service`` and a client to it; on exit the
    server stops and the live service's log is closed."""
    handle = ThreadedServer(service).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            yield handle, client
    finally:
        handle.stop()
        if handle.service.wal is not None:
            handle.service.detach_wal()


def restart(wal_dir) -> EstimationService:
    """What a process restarted on ``wal_dir`` recovers."""
    return recover_service(wal_dir, num_shards=2, attach=False)[0]


def logged_seqnos(wal_dir) -> list[int]:
    return [seqno for seqno, _ in read_wal(wal_dir)[0]]


class TestServiceWalIntegration:
    def test_every_mutation_is_logged(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 50, seed=1),
                       side="data")
        service.unregister("join")
        service.detach_wal()
        types = []
        from repro.wal import decode_payload
        for _seqno, payload in read_wal(wal_dir)[0]:
            types.append(decode_payload(payload)["type"])
        assert types == ["register", "register", "update", "unregister"]

    def test_snapshot_embeds_wal_seqno_only_when_attached(self, tmp_path):
        plain = EstimationService(num_shards=2)
        assert "wal_seqno" not in plain.snapshot()
        service = durable_service(tmp_path / "wal")
        state = service.snapshot()
        assert state["wal_seqno"] == service.wal.last_seqno == 2
        service.detach_wal()

    def test_recovery_without_snapshot_replays_everything(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 80, seed=2),
                       side="data")
        expected = service.snapshot()
        service.detach_wal()

        recovered, report = recover_service(wal_dir, num_shards=2)
        assert report.base_seqno == 0 and report.replayed_boxes == 80
        assert recovered.wal is not None
        assert_states_equal(expected, recovered.snapshot())
        recovered.detach_wal()

    def test_checkpoint_truncates_and_recovery_replays_only_tail(
            self, tmp_path):
        wal_dir = tmp_path / "wal"
        snap = tmp_path / "ckpt.sketch"
        service = durable_service(wal_dir, base=snap)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 200, seed=3),
                       side="data")
        info = service.checkpoint()
        assert info["path"] == str(snap) and info["segments_removed"] == 1
        covered = info["wal_seqno"]
        service.ingest("ranges", synthetic_boxes(DOMAIN, 60, seed=4),
                       side="data")
        expected = service.snapshot()
        service.detach_wal()

        assert [s for s, _ in read_wal(wal_dir)[0]] == [covered + 1]
        recovered, report = recover_service(wal_dir, snap, num_shards=2)
        assert report.base_seqno == covered
        assert report.replayed_records == 1 and report.replayed_boxes == 60
        assert_states_equal(expected, recovered.snapshot())
        recovered.detach_wal()

    def test_a_4_shard_checkpoint_recovers_into_the_callers_2_shards(
            self, tmp_path):
        """The shard count is the recovering caller's, not the checkpoint's:
        the tail replayed on a 4-shard checkpoint into 2 shards — deletes
        of checkpointed boxes included — equals a never-checkpointed twin."""
        wal_dir = tmp_path / "wal"
        snap = tmp_path / "ckpt.snap"
        service = durable_service(wal_dir, num_shards=4, base=snap)
        twin = EstimationService(num_shards=2, flush_threshold=None)
        twin.register("ranges", service.spec("ranges"))
        twin.register("join", service.spec("join"))
        held = synthetic_boxes(DOMAIN, 200, seed=3)
        tail = synthetic_boxes(DOMAIN, 60, seed=4)
        for target in (service, twin):
            target.ingest("ranges", held, side="data")
            target.ingest("join", held, side="left")
        service.checkpoint()
        for target in (service, twin):
            target.ingest("ranges", tail, side="data")
            target.ingest("ranges", held[:50], side="data", kind="delete")
            target.ingest("join", tail, side="right")
        service.detach_wal()

        recovered, report = recover_service(wal_dir, snap, num_shards=2)
        assert recovered.num_shards == 2
        assert report.replayed_records == 3
        assert_states_equal(twin.snapshot(), recovered.snapshot())
        queries = synthetic_queries(DOMAIN, 8, seed=6)
        for name, batch in (("ranges", queries), ("join", 2)):
            assert ([r.estimate for r in recovered.estimate_batch(name, batch)]
                    == [r.estimate for r in twin.estimate_batch(name, batch)])
        recovered.detach_wal()

    def test_a_restart_after_a_checkpoint_keeps_the_numbering(self, tmp_path):
        """The checkpoint rolls an empty segment; a log restarted on it goes
        on after the covered seqno, so the next recovery replays what the
        restarted service acked."""
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        assert service.wal.base == default_checkpoint_path(wal_dir)
        for seed in range(4):
            service.ingest("ranges", synthetic_boxes(DOMAIN, 10, seed=seed),
                           side="data")
        covered = service.checkpoint()["wal_seqno"]
        assert covered == 6
        service.detach_wal()

        restarted, _report = recover_service(wal_dir, num_shards=2)
        assert restarted.wal.last_seqno == covered
        restarted.ingest("ranges", synthetic_boxes(DOMAIN, 10, seed=20),
                         side="data")
        assert restarted.wal.last_seqno == covered + 1
        expected = restarted.snapshot()
        restarted.detach_wal()

        recovered, report = recover_service(wal_dir, num_shards=2,
                                            attach=False)
        assert report.base_seqno == covered
        assert report.replayed_records == 1 and report.replayed_boxes == 10
        assert_states_equal(expected, recovered.snapshot())

    def test_auto_checkpoint_by_appended_boxes(self, tmp_path):
        wal_dir = tmp_path / "wal"
        snap = tmp_path / "auto.sketch"
        service = durable_service(wal_dir, base=snap,
                                  checkpoint_boxes=100)
        for seed in range(4):
            service.ingest("ranges", synthetic_boxes(DOMAIN, 60, seed=seed),
                           side="data")
        # 60+60 crosses the threshold -> checkpoint -> counter resets.
        assert os.path.exists(snap)
        assert service.wal.appended_boxes < 100
        service.detach_wal()

    def test_unregister_supersedes_logged_updates(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        service.ingest("join", synthetic_boxes(DOMAIN, 40, seed=5),
                       side="left")
        service.unregister("join")
        expected = service.snapshot()
        service.detach_wal()

        recovered, _report = recover_service(wal_dir, num_shards=2)
        assert "join" not in recovered
        assert_states_equal(expected, recovered.snapshot())
        recovered.detach_wal()

    def test_torn_tail_costs_only_unacknowledged_writes(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 50, seed=6),
                       side="data")
        durable = service.snapshot()
        service.detach_wal()
        # A crash mid-append leaves a torn record: simulate with garbage.
        with open(list_segments(wal_dir)[-1], "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef torn record")
        recovered, report = recover_service(wal_dir, num_shards=2)
        assert report.truncated_bytes > 0
        state = recovered.snapshot()
        assert_states_equal(durable, state)
        recovered.detach_wal()

    def test_a_batch_the_flush_would_refuse_never_reaches_the_log(
            self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        good = synthetic_boxes(DOMAIN, 4, seed=8)
        highs = good.highs.copy()
        highs[2, 1] = 256
        outside = BoxSet(good.lows, highs)
        with pytest.raises(ServiceError, match="outside the domain"):
            service.ingest("ranges", outside, side="data")
        assert service.wal.last_seqno == 2 and service.pending == 0
        # A log an earlier build wrote with such a record in it fails
        # recovery at that record, not in a later flush.
        service.wal.append_update("ranges", "data", "insert",
                                  np.hstack((outside.lows, outside.highs)))
        service.detach_wal()
        with pytest.raises(ServiceError, match="outside the domain"):
            recover_service(wal_dir, num_shards=2, attach=False)

    def test_a_zero_extent_on_a_shrunk_side_never_reaches_the_log(
            self, tmp_path):
        """The endpoint transform empties a join's ``right`` box with lo ==
        hi; the left side keeps it, so only the right is refused."""
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        flat = BoxSet(np.array([[4, 4], [10, 10]]), np.array([[9, 9], [20, 10]]))
        with pytest.raises(ServiceError, match="lo == hi"):
            service.ingest("join", flat, side="right")
        assert service.wal.last_seqno == 2 and service.pending == 0
        service.ingest("join", flat, side="left")
        service.flush()
        # A log an earlier build wrote with such a record fails recovery
        # at that record.
        service.wal.append_update("join", "right", "insert",
                                  np.hstack((flat.lows, flat.highs)))
        service.detach_wal()
        with pytest.raises(ServiceError, match="lo == hi"):
            recover_service(wal_dir, num_shards=2, attach=False)

    @pytest.mark.parametrize("width", [3, 0])
    def test_update_rows_of_an_odd_or_zero_width_fail_recovery(
            self, tmp_path, width):
        """Rows that are not ``(count, 2 * dim)`` are a malformed log:
        refused where the payload decodes, before any replay.  The writer
        refuses such rows too, so the record is planted by hand."""
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        seqno = service.wal.last_seqno + 1
        service.detach_wal()
        event = {"type": "update", "name": "ranges", "side": "data",
                 "kind": "insert", "rows": np.zeros((2, width), dtype=np.int64)}
        with open(list_segments(wal_dir)[-1], "ab") as handle:
            handle.write(encode_record(seqno, encode_binary(event)))
        with pytest.raises(WalFormatError, match=r"\(count, 2\*dim\)"):
            recover_service(wal_dir, num_shards=2, attach=False)

    def test_checkpoint_requires_a_wal(self):
        plain = EstimationService(num_shards=2)
        with pytest.raises(ServiceError):
            plain.checkpoint()

    def test_double_attach_rejected(self, tmp_path):
        service = durable_service(tmp_path / "wal")
        with pytest.raises(ServiceError):
            service.attach_wal(WalWriter(tmp_path / "other"))
        service.detach_wal()


class TestServerWalVerbs:
    def test_reload_replays_wal_tail_so_no_write_is_dropped(self, tmp_path):
        """Acceptance: hot-reload = snapshot + replay, drops no writes."""
        wal_dir = tmp_path / "wal"
        snap = tmp_path / "base.sketch"
        service = durable_service(wal_dir, base=snap)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 150, seed=9),
                       side="data")
        service.checkpoint()
        # Writes after the checkpoint live only in the WAL tail.
        service.ingest("ranges", synthetic_boxes(DOMAIN, 70, seed=10),
                       side="data")
        service.flush()
        expected = service.estimate("ranges",
                                    synthetic_queries(DOMAIN, 1, seed=11))

        async def main():
            server = await start_server(service)
            try:
                conn = await Connection.open(server.port)
                reply = await conn.round_trip({"op": "reload",
                                               "path": str(snap)})
                row = protocol.boxes_to_rows(
                    synthetic_queries(DOMAIN, 1, seed=11))[0]
                estimate = await conn.round_trip(
                    {"op": "estimate", "name": "ranges", "query": row})
                await conn.close()
                return server.service, reply, estimate
            finally:
                await server.close()

        reloaded, reply, estimate = asyncio.run(main())
        assert reply["ok"] and reply["replayed_records"] == 1
        assert reply["replayed_boxes"] == 70
        assert estimate["estimate"] == expected.estimate
        assert reloaded.wal is not None  # durability survives the swap
        reloaded.detach_wal()

    def test_inline_reload_restarts_the_local_lineage(self, tmp_path):
        """A wire-shipped bootstrap truncates the WAL and saves a new base."""
        donor = EstimationService(num_shards=2)
        donor.register("ranges", family="range", domain=DOMAIN,
                       num_instances=16, seed=5)
        donor.ingest("ranges", synthetic_boxes(DOMAIN, 90, seed=12),
                     side="data")
        donor.flush()
        raw = _snapshot_bytes(donor)

        wal_dir = tmp_path / "wal"
        local = durable_service(wal_dir)
        local.ingest("ranges", synthetic_boxes(DOMAIN, 30, seed=13),
                     side="data")

        async def main():
            server = await start_server(local)
            try:
                conn = await Connection.open(server.port)
                reply = await conn.round_trip(
                    {"op": "reload", "data": protocol.pack_bytes(raw)})
                await conn.close()
                return server.service, reply
            finally:
                await server.close()

        fresh, reply = asyncio.run(main())
        assert reply["ok"] and reply["source"] == "inline"
        base = default_checkpoint_path(wal_dir)
        assert reply["recovery_base"] == base and os.path.exists(base)
        # Old-lineage records are gone; future writes log from here.
        assert read_wal(wal_dir)[0] == []
        fresh.ingest("ranges", synthetic_boxes(DOMAIN, 10, seed=14),
                     side="data")
        expected = fresh.snapshot()
        fresh.detach_wal()
        recovered, report = recover_service(wal_dir, base, num_shards=2)
        assert report.replayed_boxes == 10
        assert_states_equal(expected, recovered.snapshot())
        recovered.detach_wal()


class TestOneRecoveryBase:
    """A log has one recovery base: every reload, checkpoint and restart
    agrees on which snapshot the log's tail belongs to."""

    def test_a_reload_of_another_file_is_what_a_restart_comes_back_to(
            self, tmp_path):
        wal_dir = tmp_path / "wal"
        other = tmp_path / "other.sketch"
        twin = durable_service()
        twin.ingest("ranges", synthetic_boxes(DOMAIN, 90, seed=21),
                    side="data")
        twin.save(other)
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 40, seed=22),
                       side="data")
        after = synthetic_boxes(DOMAIN, 30, seed=23)
        with served(service) as (handle, client):
            client.reload(str(other))
            client.ingest("ranges", after, side="data")
            running = handle.service.snapshot()
        twin.ingest("ranges", after, side="data")
        assert_states_equal(twin.snapshot(), running)
        assert_states_equal(running, restart(wal_dir).snapshot())

    def test_reloading_an_offline_copy_of_the_live_state_changes_nothing(
            self, tmp_path):
        """The copy has no ``wal_seqno``; none of the log lands on it."""
        wal_dir = tmp_path / "wal"
        copy = tmp_path / "copy.sketch"
        boxes = synthetic_boxes(DOMAIN, 120, seed=24)
        service = durable_service(wal_dir)
        offline = durable_service()
        for target in (service, offline):
            target.ingest("ranges", boxes, side="data")
            target.ingest("join", boxes, side="left")
        offline.save(copy)
        queries = synthetic_queries(DOMAIN, 8, seed=25)
        before = [r.estimate for r in service.estimate_batch("ranges", queries)]
        with served(service) as (handle, client):
            client.reload(str(copy))
            after = [r.estimate
                     for r in handle.service.estimate_batch("ranges", queries)]
            running = handle.service.snapshot()
        assert after == before
        assert_states_equal(offline.snapshot(), running)
        assert_states_equal(running, restart(wal_dir).snapshot())

    def test_a_checkpoint_naming_another_path_is_refused_and_truncates_nothing(
            self, tmp_path):
        wal_dir = tmp_path / "wal"
        elsewhere = tmp_path / "elsewhere.sketch"
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 50, seed=26),
                       side="data")
        with served(service) as (handle, client):
            with pytest.raises(ServerError) as info:
                client.request(protocol.build(
                    "snapshot", checkpoint=True, path=str(elsewhere)))
            assert info.value.code == "bad_request"
            running = handle.service.snapshot()
            last = handle.service.wal.last_seqno
        assert not elsewhere.exists()
        assert logged_seqnos(wal_dir) == list(range(1, last + 1))
        recovered = restart(wal_dir)
        assert recovered.names() == service.names()
        assert_states_equal(running, recovered.snapshot())

    def test_a_failed_inline_reload_truncates_nothing_and_keeps_logging(
            self, tmp_path, monkeypatch):
        raw = _snapshot_bytes(durable_service())
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir, sync="flush")
        service.ingest("ranges", synthetic_boxes(DOMAIN, 30, seed=27),
                       side="data")
        with served(service) as (handle, client):
            def refuse(self, path):
                raise OSError("no space left on the device")

            with monkeypatch.context() as patch:
                patch.setattr(EstimationService, "save", refuse)
                with pytest.raises(ServerError, match="no space"):
                    client.request(protocol.build("reload", data=raw))
            assert logged_seqnos(wal_dir) == [1, 2, 3]
            assert handle.service is service and service.wal is not None
            client.ingest("ranges", synthetic_boxes(DOMAIN, 20, seed=28),
                          side="data")
            running = service.snapshot()
            last = service.wal.last_seqno
        assert logged_seqnos(wal_dir) == list(range(1, last + 1))
        assert_states_equal(running, restart(wal_dir).snapshot())

    #: A write sent while a reload is under way, and what it does to a
    #: service that never reloaded.
    WRITES = {
        "ingest": (dict(op="ingest", name="ranges", side="data",
                        boxes=protocol.boxes_to_rows(LATE)),
                   lambda twin: twin.ingest("ranges", LATE, side="data")),
        "register": (dict(op="register", name="extra", family="range",
                          sizes=[256, 256], instances=16, seed=9),
                     lambda twin: twin.register("extra", family="range",
                                                domain=(256, 256),
                                                num_instances=16, seed=9)),
        "unregister": (dict(op="unregister", name="join"),
                       lambda twin: twin.unregister("join")),
        "flush": (dict(op="flush"), lambda twin: twin.flush()),
        "tenant": (dict(op="tenant", action="create", tenant="acme",
                        token="acme-secret"), lambda twin: None),
        "checkpoint": (dict(op="snapshot", checkpoint=True), lambda twin: None),
        # A snapshot writes nothing the twin sees, but it must save (or
        # ship) the state the reload leaves: a pathless one the log's
        # base, one naming the base with the log position beside it.
        "snapshot": (dict(op="snapshot"), lambda twin: None),
        "snapshot_base": (dict(op="snapshot", path=BASE), lambda twin: None),
        "fetch": (dict(op="snapshot", fetch=True), lambda twin: None),
    }

    @pytest.mark.parametrize("source, verb", [
        ("base", verb) for verb in WRITES] + [
        (source, verb) for source in ("file", "inline")
        for verb in ("ingest", "checkpoint", "fetch")])
    def test_a_write_during_a_reload_is_in_the_reloaded_state(
            self, tmp_path, source, verb):
        """A reload detaches the old service's log before the new service is
        swapped in.  A write that arrives in between waits for the swap: it
        is acked, running and recovered, never dropped with the old
        service; a snapshot saves or ships the reloaded state.  A seam
        holds the old service's ``detach_wal`` open while the request
        arrives."""
        wal_dir = tmp_path / "wal"
        early = synthetic_boxes(DOMAIN, 40, seed=30)
        twin = durable_service()
        if source != "base":  # the reload replaces the state with another
            twin.ingest("ranges", synthetic_boxes(DOMAIN, 50, seed=32),
                        side="data")
        reload = {"base": {}, "file": {"path": str(tmp_path / "other.sketch")},
                  "inline": {"data": _snapshot_bytes(twin)}}[source]
        if source == "file":
            twin.save(reload["path"])
        request, apply = self.WRITES[verb]
        if request.get("path") is BASE:
            request = {**request, "path": default_checkpoint_path(wal_dir)}
        service = durable_service(wal_dir, sync="flush")
        service.ingest("ranges", early, side="data")
        if source == "base":
            twin.ingest("ranges", early, side="data")
        detached, release, dispatched = (threading.Event() for _ in range(3))
        detach = service.detach_wal

        def held_detach(**kwargs):
            writer = detach(**kwargs)
            detached.set()
            release.wait(30)
            return writer

        service.detach_wal = held_detach
        # Two executor threads: the reload pins one in the seam, so a
        # write the server runs meanwhile runs on the other, ahead of the
        # probe queued after it.
        handle = ThreadedServer(service, config=ServerConfig(
            executor_workers=2)).start()
        record = handle.server.metrics.record_request

        def recorded(op):
            record(op)
            if op == request["op"]:
                dispatched.set()

        handle.server.metrics.record_request = recorded
        replies = {}

        def send(key, payload):
            with ServiceClient("127.0.0.1", handle.port) as client:
                replies[key] = client.request(payload)

        threads = [threading.Thread(target=send, args=(
            "reload", protocol.build("reload", **reload)))]
        try:
            threads[0].start()
            assert detached.wait(30)
            threads.append(threading.Thread(target=send,
                                            args=("write", request)))
            threads[1].start()
            assert dispatched.wait(30)

            async def probe():
                # Queued behind whatever the write's handler submitted.
                await asyncio.sleep(0)
                await handle.server._run_blocking(lambda: None)

            handle.run(probe())
            release.set()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert replies["reload"]["ok"] and replies["write"]["ok"]
            running = handle.service.snapshot()
        finally:
            release.set()
            handle.stop()
            if handle.service.wal is not None:
                handle.service.detach_wal()
        apply(twin)
        expected = twin.snapshot()
        if verb == "fetch":
            assert_states_equal(running, snapshot_state_from_bytes(
                protocol.payload_bytes(replies["write"]["data"])))
        if verb == "tenant":  # the record carries its creation time
            assert [record["tenant_id"] for record in running["tenants"]["records"]] \
                == ["acme"]
            expected["tenants"] = running["tenants"]
        assert_states_equal(expected, running)
        assert_states_equal(running, restart(wal_dir).snapshot())

    def test_a_reload_reports_the_local_log_position(self, tmp_path):
        """A file from another log carries that log's ``wal_seqno``; the
        reply names this log's, as ``stats`` does."""
        donor = durable_service(tmp_path / "donor")
        for seed in range(3):
            donor.ingest("ranges", synthetic_boxes(DOMAIN, 10, seed=seed),
                         side="data")
        other = tmp_path / "other.sketch"
        donor.save(other)
        donor.detach_wal()
        wal_dir = tmp_path / "wal"
        service = durable_service(wal_dir)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 10, seed=29),
                       side="data")
        with served(service) as (handle, client):
            reply = client.reload(str(other))
            assert reply["wal_seqno"] == 3
            assert reply["wal_seqno"] == client.stats()["wal"]["last_seqno"]
            # The base itself: base + tail, as a restart recovers it.
            reply = client.reload()
            assert reply["wal_seqno"] == client.stats()["wal"]["last_seqno"]
            # A checkpoint that names the base is a checkpoint.
            base = default_checkpoint_path(wal_dir)
            assert client.request(protocol.build(
                "snapshot", checkpoint=True, path=base))["path"] == base
