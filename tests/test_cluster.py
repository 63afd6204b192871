"""Cluster tests: scatter-gather exactness, replicas, failure handling.

The in-process tests run worker servers as :class:`ThreadedServer`
instances (each with its own sharded service) under one
:class:`ThreadedClusterRouter` — same NDJSON protocol, no subprocesses.
The kill/replace end-to-end test uses real subprocess workers via
:class:`LocalFleet` because it needs to kill one mid-traffic.
"""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster import ThreadedClusterRouter
from repro.cluster.fleet import LocalFleet
from repro.cluster.manager import HEARTBEAT_MAX_FAILURES
from repro.core.domain import Domain
from repro.errors import (
    ConnectionLostError,
    DegradedError,
    ServerError,
    ServiceError,
)
from repro.geometry.boxset import BoxSet
from repro.server import ServerConfig, ThreadedServer, boxes_to_rows, protocol
from repro.service import (
    EstimationService,
    EstimatorSpec,
    synthetic_boxes,
    synthetic_queries,
)
from repro.service.store import shard_ids

#: What a wire ``register`` of 256 x 256 builds, per family: the derived
#: level caps (``range`` (5, 5), the joins (6, 6)).
DOMAINS = {family: EstimatorSpec.create(family, (256, 256), 1).domain()
           for family in ("range", "rectangle", "containment")}
DOMAIN = DOMAINS["range"]

# Three estimator families with different reduction shapes: queryable
# linear counts, a bilinear join, and an asymmetric containment join.
FAMILY_SPECS = [
    ("ranges", "range", 32, 5),
    ("join", "rectangle", 16, 7),
    ("contain", "containment", 16, 9),
]
FAMILY_SIDES = {
    "ranges": [("data", 1)],
    "join": [("left", 2), ("right", 3)],
    "contain": [("outer", 4), ("inner", 5)],
}

pytestmark = pytest.mark.e2e


def _register_everywhere(client: ServiceClient,
                         reference: EstimationService) -> None:
    for name, family, instances, seed in FAMILY_SPECS:
        client.register(name, family=family, sizes=[256, 256],
                        instances=instances, seed=seed)
        reference.register(name, family=family, domain=DOMAINS[family],
                           num_instances=instances, seed=seed)


def _ingest_everywhere(client: ServiceClient, reference: EstimationService,
                       *, count: int = 300) -> None:
    for name, sides in FAMILY_SIDES.items():
        for side, seed in sides:
            boxes = synthetic_boxes(DOMAIN, count, seed=seed)
            client.ingest(name, boxes, side=side)
            reference.ingest(name, boxes, side=side)
    client.flush()
    reference.flush()


def _mixed_burst(reference: EstimationService, *, seed: int
                 ) -> tuple[list[dict], list]:
    """32 pipelined estimates, 14 : 1 : 1 over the three families, and the
    reference's answers to them."""
    queries = synthetic_queries(DOMAIN, 28, seed=seed)
    rows = boxes_to_rows(queries)
    unused = iter(range(len(rows)))
    requests, expected = [], []
    for index in range(32):
        name = {14: "join", 15: "contain"}.get(index % 16, "ranges")
        if name == "ranges":
            row = next(unused)
            requests.append({"op": "estimate", "name": name,
                             "query": rows[row]})
            expected.append(reference.estimate(name, queries[row]))
        else:
            requests.append({"op": "estimate", "name": name})
            expected.append(reference.estimate(name))
    return requests, expected


def _assert_answers(replies: list[dict], expected: list) -> None:
    for reply, result in zip(replies, expected, strict=True):
        assert reply["ok"], reply
        assert (reply["estimate"], reply["left_count"],
                reply["right_count"]) == (result.estimate, result.left_count,
                                          result.right_count)


@pytest.fixture()
def worker_trio():
    """Three in-process worker servers, each a full sharded service."""
    handles = [ThreadedServer(EstimationService(num_shards=2),
                              config=ServerConfig(max_batch=16,
                                                  max_delay=0.001)).start()
               for _ in range(3)]
    try:
        yield handles
    finally:
        for handle in handles:
            handle.stop()


@pytest.fixture()
def cluster(worker_trio):
    addresses = [("127.0.0.1", handle.port) for handle in worker_trio]
    with ThreadedClusterRouter(
            addresses, start_heartbeat=False) as handle:
        yield handle


class TestScatterGather:
    def test_estimates_bit_identical_across_three_families(self, cluster):
        """Acceptance: cluster == single-node, exactly, for >= 3 families."""
        reference = EstimationService(num_shards=2)
        with ServiceClient("127.0.0.1", cluster.port) as client:
            _register_everywhere(client, reference)
            _ingest_everywhere(client, reference)
            queries = synthetic_queries(DOMAIN, 8, seed=17)
            for i in range(8):
                expected = reference.estimate("ranges", queries[i])
                got = client.estimate("ranges", queries[i])
                assert got.estimate == expected.estimate
                assert got.left_count == expected.left_count
            for name in ("join", "contain"):
                expected = reference.estimate(name)
                got = client.estimate(name)
                assert got.estimate == expected.estimate
                assert got.left_count == expected.left_count
                assert got.right_count == expected.right_count
            # The same, pipelined: the router answers a mixed burst through
            # its coalescer, in batches that span all three families.
            requests, expected = _mixed_burst(reference, seed=19)
            _assert_answers(client.request_many(requests), expected)

    def test_a_burst_scatters_once_per_name_per_batch(self, worker_trio):
        """A pipelined 32-estimate burst over three families on two shard
        workers costs each worker at most one partial request per name per
        coalesced batch — not one per query — and the batches are fewer
        than the queries.  A malformed query in the burst fails alone, with
        the single-node verdict, and costs no second scatter."""
        reference = EstimationService(num_shards=2)
        workers = worker_trio[:2]
        with ThreadedClusterRouter(
                [("127.0.0.1", handle.port) for handle in workers],
                start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            _register_everywhere(client, reference)
            _ingest_everywhere(client, reference, count=100)

            def counted() -> tuple[int, int]:
                asked = sum(worker.server.metrics.requests.get("estimate", 0)
                            for worker in workers)
                return asked, client.stats()["server"]["coalesce_batches"]

            def burst(requests: list[dict]) -> tuple[list[dict], int, int]:
                asked_before, batches_before = counted()
                replies = client.request_many(requests)
                asked_after, batches_after = counted()
                return (replies, asked_after - asked_before,
                        batches_after - batches_before)

            requests, expected = _mixed_burst(reference, seed=31)
            replies, asked, batches = burst(requests)
            _assert_answers(replies, expected)
            assert 0 < batches < len(requests)
            assert asked <= 2 * 3 * batches

            bad = BoxSet([[0, 0]], [[999, 999]])
            with pytest.raises(ServiceError) as verdict:
                reference.estimate("ranges", bad)
            requests[5] = {**requests[5], "query": boxes_to_rows(bad)[0]}
            replies, asked, batches = burst(requests)
            assert replies[5]["error_code"] == "bad_request"
            assert replies[5]["error"] == f"ServiceError: {verdict.value}"
            _assert_answers(replies[:5] + replies[6:],
                            expected[:5] + expected[6:])
            assert 0 < batches < len(requests)
            assert asked <= 2 * 3 * batches

    def test_a_router_over_one_worker_answers_as_that_worker(self,
                                                              worker_trio):
        """One owner group holds all the data; the router's reduce of its
        one state answers bit-identically to the worker itself."""
        worker = worker_trio[0]
        with ThreadedClusterRouter([("127.0.0.1", worker.port)],
                                   start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as routed, \
                ServiceClient("127.0.0.1", worker.port) as direct:
            reference = EstimationService(num_shards=2)
            _register_everywhere(routed, reference)
            _ingest_everywhere(routed, reference, count=150)
            requests, expected = _mixed_burst(reference, seed=37)
            replies = routed.request_many(requests)
            assert replies == direct.request_many(requests)
            _assert_answers(replies, expected)

    def test_a_bad_query_gets_the_single_node_verdict(self, cluster):
        """A routed estimate is checked where the router's reduce compiles
        it, by the check a single service runs: same refusal, same words."""
        reference = EstimationService(num_shards=2)
        with ServiceClient("127.0.0.1", cluster.port) as client:
            _register_everywhere(client, reference)
            _ingest_everywhere(client, reference, count=50)
            for name, query in (("ranges", BoxSet([[0, 0]], [[999, 999]])),
                                ("ranges", None),
                                ("join", BoxSet([[0, 0]], [[9, 9]]))):
                with pytest.raises(ServiceError) as expected:
                    reference.estimate(name, query)
                with pytest.raises(ServerError) as refused:
                    client.estimate(name, query)
                assert refused.value.code == "bad_request"
                assert str(refused.value) == f"ServiceError: {expected.value}"
            query = synthetic_queries(DOMAIN, 1, seed=3)
            assert client.estimate("ranges", query).estimate == \
                reference.estimate("ranges", query).estimate

    def test_a_down_owner_group_fails_a_burst_typed_until_replaced(
            self, cluster, worker_trio):
        """Every estimate of a pipelined burst that needs an owner group
        with no healthy member fails promptly with a ``degraded`` error
        naming its estimator and the down owner; once the group is
        replaced, the same burst answers bit-identically."""
        reference = EstimationService(num_shards=2)
        with ServiceClient("127.0.0.1", cluster.port, timeout=30) as client:
            _register_everywhere(client, reference)
            _ingest_everywhere(client, reference, count=100)
            requests, expected = _mixed_burst(reference, seed=41)
            cluster.manager.worker("w1").healthy = False
            for request, reply in zip(requests, client.request_many(requests)):
                assert reply["error_code"] == "degraded", reply
                assert reply["error"].startswith("cluster degraded: ")
                assert reply["detail"] == {"op": "estimate",
                                           "name": request["name"],
                                           "down_owners": ["w1"]}
            cluster.run(cluster.manager.replace_worker(
                "w1", "127.0.0.1", worker_trio[1].port))
            _assert_answers(client.request_many(requests), expected)

    def test_ingest_partitions_by_shard_hash(self, cluster, worker_trio):
        """Row ``i`` goes to the shard workers sorted by name, indexed by
        the store's shard hash over their count."""
        boxes = synthetic_boxes(DOMAIN, 200, seed=21)
        owners = ["w0", "w1", "w2"]
        expected_rows = dict.fromkeys(owners, 0)
        for index in shard_ids(boxes, len(owners)):
            expected_rows[owners[index]] += 1
        with ServiceClient("127.0.0.1", cluster.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=8, seed=5)
            client.ingest("ranges", boxes, side="data")
            client.flush()
        for index, handle in enumerate(worker_trio):
            count = handle.service.merged_view("ranges").count
            assert count == expected_rows[f"w{index}"]
        assert sum(expected_rows.values()) == 200

    def test_replicas_take_no_share_of_the_partition(self, worker_trio):
        """The owners are the shard workers only: a replica mirrors its
        owner's rows and ``stats`` counts the owners as ``num_shards``."""
        boxes = synthetic_boxes(DOMAIN, 300, seed=53)
        group = shard_ids(boxes, 2)
        with ThreadedClusterRouter(
                [("127.0.0.1", handle.port) for handle in worker_trio[:2]],
                start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            handle.run(handle.router.bootstrap_replica(
                "r2", "127.0.0.1", worker_trio[2].port, source="w0"))
            assert client.stats()["num_shards"] == 2
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=8, seed=5)
            client.ingest("ranges", boxes, side="data")
            client.flush()
        counts = [handle.service.merged_view("ranges").count
                  for handle in worker_trio]
        assert counts == [int((group == 0).sum()), int((group == 1).sum()),
                          int((group == 0).sum())]

    def test_a_single_shard_worker_takes_every_row(self, worker_trio):
        boxes = synthetic_boxes(DOMAIN, 120, seed=57)
        with ThreadedClusterRouter(
                [("127.0.0.1", worker_trio[0].port)],
                start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            assert client.stats()["num_shards"] == 1
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=8, seed=5)
            client.ingest("ranges", boxes, side="data")
            client.flush()
        assert worker_trio[0].service.merged_view("ranges").count == 120

    def test_a_replaced_worker_keeps_its_share(self, cluster, worker_trio):
        """The split is keyed by name: a replacement process under an old
        name takes that name's rows, and the other workers keep theirs."""
        boxes = synthetic_boxes(DOMAIN, 300, seed=59)
        group = shard_ids(boxes, 3)
        spare = ThreadedServer(EstimationService(num_shards=2)).start()
        try:
            cluster.run(cluster.manager.replace_worker(
                "w1", "127.0.0.1", spare.port))
            with ServiceClient("127.0.0.1", cluster.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=8, seed=5)
                client.ingest("ranges", boxes, side="data")
                client.flush()
            counts = [handle.service.merged_view("ranges").count
                      for handle in (worker_trio[0], spare, worker_trio[2])]
        finally:
            spare.stop()
        assert counts == [int((group == index).sum()) for index in range(3)]
        assert worker_trio[1].service.names() == []

    def test_a_duplicate_worker_name_is_refused(self, cluster, worker_trio):
        with pytest.raises(ServiceError, match="already registered"):
            cluster.run(cluster.router.attach(
                "w0", "127.0.0.1", worker_trio[1].port))
        assert [info.name for info in cluster.manager.workers()] == \
            ["w0", "w1", "w2"]

    def test_a_router_without_shard_workers_refuses_typed(self):
        with ThreadedClusterRouter(start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=8, seed=5)
            assert client.stats()["num_shards"] == 0
            for send in (lambda: client.ingest(
                            "ranges", synthetic_boxes(DOMAIN, 5, seed=1),
                            side="data"),
                         lambda: client.estimate(
                            "ranges", synthetic_queries(DOMAIN, 1, seed=2))):
                with pytest.raises(ServerError) as info:
                    send()
                assert info.value.code == "bad_request"
                assert "no shard workers" in str(info.value)

    def test_attach_order_does_not_change_the_partition(self, tmp_path):
        """Two routers over the same three workers, attached in opposite
        orders, split one frame alike: each worker logs the same rows from
        both."""
        from repro.wal import WalWriter
        from repro.wal.framing import decode_payload
        from repro.wal.reader import read_wal

        handles = []
        for index in range(3):
            service = EstimationService(num_shards=2)
            service.attach_wal(WalWriter(tmp_path / f"w{index}", sync="none"))
            handles.append(ThreadedServer(service).start())
        boxes = synthetic_boxes(DOMAIN, 300, seed=41)
        try:
            with ThreadedClusterRouter(start_heartbeat=False) as first, \
                    ThreadedClusterRouter(start_heartbeat=False) as second:
                for handle, order in ((first, (0, 1, 2)),
                                      (second, (2, 1, 0))):
                    for index in order:
                        handle.run(handle.router.attach(
                            f"w{index}", "127.0.0.1", handles[index].port))
                for handle in (first, second):
                    with ServiceClient("127.0.0.1", handle.port) as client:
                        if handle is first:
                            client.register("ranges", family="range",
                                            sizes=[256, 256], instances=8,
                                            seed=5)
                        client.ingest("ranges", boxes, side="data")
        finally:
            for handle in handles:
                handle.service.detach_wal()
                handle.stop()
        for index in range(3):
            rows = [event["rows"] for event in map(
                decode_payload, (payload for _, payload in read_wal(
                    tmp_path / f"w{index}")[0])) if event["type"] == "update"]
            assert len(rows) == 2 and len(rows[0])
            assert np.array_equal(rows[0], rows[1])

    def test_growing_the_fleet_mid_stream_keeps_answers_exact(
            self, worker_trio):
        """Which worker holds a box never changes an answer: a third shard
        worker joins mid-stream, half the boxes inserted before it are then
        deleted — some on a worker that never saw their insert — and the
        routed ``range`` and ``rectangle`` answers stay bit-identical to
        one in-process service."""
        reference = EstimationService(num_shards=2)
        first = {name: {side: synthetic_boxes(DOMAIN, 500, seed=seed)
                        for side, seed in FAMILY_SIDES[name]}
                 for name in ("ranges", "join")}
        with ThreadedClusterRouter(
                [("127.0.0.1", handle.port) for handle in worker_trio[:2]],
                start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            _register_everywhere(client, reference)

            def feed(name, boxes, side, kind="insert"):
                client.ingest(name, boxes, side=side, kind=kind)
                reference.ingest(name, boxes, side=side, kind=kind)

            for name, sides in first.items():
                for side, boxes in sides.items():
                    feed(name, boxes, side)
            handle.run(handle.router.attach("w2", "127.0.0.1",
                                            worker_trio[2].port))
            for name, sides in first.items():
                for side, boxes in sides.items():
                    feed(name, synthetic_boxes(DOMAIN, 200, seed=43), side)
                    gone = boxes[np.arange(0, 500, 2)]
                    assert np.any(shard_ids(gone, 3) == 2)
                    feed(name, gone, side, kind="delete")
            client.flush()
            reference.flush()
            queries = synthetic_queries(DOMAIN, 6, seed=47)
            for index in range(6):
                got = client.estimate("ranges", queries[index])
                expected = reference.estimate("ranges", queries[index])
                assert got.estimate == expected.estimate
                assert got.left_count == expected.left_count
            got, expected = client.estimate("join"), reference.estimate("join")
            assert got.estimate == expected.estimate
            assert (got.left_count, got.right_count) == \
                (expected.left_count, expected.right_count)

    def test_a_level_capped_spec_reaches_every_worker(self, cluster,
                                                      worker_trio):
        """``register`` carries ``max_levels``: the workers — one attached
        after the fact included — hold the capped spec, not the uncapped
        one with its taller tables, and answer as in-process."""
        capped = Domain((256, 256), max_levels=(4, None))
        reference = EstimationService(num_shards=2)
        spec = reference.register("capped", family="range", domain=capped,
                                  num_instances=16, seed=31)
        assert spec.max_levels == (4, None)
        boxes = synthetic_boxes(DOMAIN, 300, seed=23)
        reference.ingest("capped", boxes, side="data")
        reference.flush()
        late = ThreadedServer(EstimationService(num_shards=2)).start()
        try:
            with ServiceClient("127.0.0.1", cluster.port) as client:
                reply = client.request(protocol.build(
                    "register", name="capped", family="range", sizes=[256, 256],
                    instances=16, seed=31, max_levels=[4, None]))
                assert reply["spec"] == spec.to_dict()
                cluster.run(cluster.router.attach("late", "127.0.0.1",
                                                  late.port))
                for handle in (*worker_trio, late):
                    assert (handle.service.spec("capped").to_dict()
                            == spec.to_dict())
                client.ingest("capped", boxes, side="data")
                client.flush()
                queries = synthetic_queries(DOMAIN, 6, seed=19)
                for index in range(6):
                    assert (client.estimate("capped", queries[index]).estimate
                            == reference.estimate("capped",
                                                  queries[index]).estimate)
        finally:
            late.stop()

    def test_a_stored_uncapped_spec_stays_uncapped_on_every_worker(
            self, tmp_path):
        """A worker restored from a snapshot written with ``max_levels:
        null`` serves the full tree; the router that adopts the name hands
        its other workers that spec (null entries), never the default caps
        a ``register`` without ``max_levels`` would get — one name, one
        tree, and the fleet answers as one uncapped service."""
        full = Domain((256, 256))
        before = synthetic_boxes(full, 200, seed=27)
        after = synthetic_boxes(full, 300, seed=28)
        reference = EstimationService(num_shards=2)
        spec = reference.register("old", family="range", domain=full,
                                  num_instances=16, seed=33)
        assert spec.to_dict()["max_levels"] is None
        reference.ingest("old", before, side="data")
        reference.save(tmp_path / "old.snap")
        handles = [ThreadedServer(service).start() for service in (
            EstimationService.load(tmp_path / "old.snap"),
            EstimationService(num_shards=2))]
        try:
            with ThreadedClusterRouter(
                    [("127.0.0.1", handle.port) for handle in handles],
                    start_heartbeat=False) as fleet, \
                    ServiceClient("127.0.0.1", fleet.port) as client:
                restored, fresh = (handle.service.spec("old")
                                   for handle in handles)
                assert restored == spec
                assert fresh.domain().signature() == full.signature()
                client.ingest("old", after, side="data")
                client.flush()
                reference.ingest("old", after, side="data")
                assert all(handle.service.merged_view("old").count
                           for handle in handles)
                queries = synthetic_queries(full, 6, seed=29)
                for index in range(6):
                    got = client.estimate("old", queries[index])
                    expected = reference.estimate("old", queries[index])
                    assert got.estimate == expected.estimate
                    assert got.left_count == expected.left_count
        finally:
            for handle in handles:
                handle.stop()

    def test_a_stored_split_spec_keeps_its_caps_on_every_worker(
            self, tmp_path):
        """A level-split name restored with caps other than the derived
        ones ((6, 6), not (5, 5)) is registered on a fresh worker with
        those caps, and the worker's reply carries the router's spec."""
        capped = Domain((256, 256), max_levels=6)
        boxes = synthetic_boxes(capped, 200, seed=27)
        reference = EstimationService(num_shards=2)
        spec = reference.register("old", family="range", domain=capped,
                                  num_instances=16, seed=33)
        assert spec.split_levels and spec.max_levels == (6, 6)
        reference.ingest("old", boxes, side="data")
        reference.save(tmp_path / "old.snap")
        handles = [ThreadedServer(service).start() for service in (
            EstimationService.load(tmp_path / "old.snap"),
            EstimationService(num_shards=2))]
        try:
            with ThreadedClusterRouter(
                    [("127.0.0.1", handle.port) for handle in handles],
                    start_heartbeat=False) as fleet, \
                    ServiceClient("127.0.0.1", fleet.port) as client:
                assert [handle.service.spec("old") for handle in handles] \
                    == [spec, spec]
                query = synthetic_queries(capped, 1, seed=29)
                assert (client.estimate("old", query).estimate
                        == reference.estimate("old", query).estimate)
        finally:
            for handle in handles:
                handle.stop()

    def test_a_spec_a_worker_cannot_build_is_refused(self, tmp_path):
        """A stored one-cell ``range`` spec (written before level-split
        counters) cannot be registered on a fresh worker — ``register``
        has no layout field, so that worker would split.  Attaching it
        fails naming both specs instead of serving a name whose workers
        disagree."""
        stored = EstimatorSpec.from_dict({
            "family": "range", "sizes": [256, 256], "num_instances": 8,
            "seed": 5, "max_levels": [5, 5], "options": {}})
        assert not stored.split_levels
        old = EstimationService(num_shards=2)
        old.register("old", stored)
        old.ingest("old", synthetic_boxes(DOMAIN, 50, seed=1), side="data")
        old.save(tmp_path / "old.snap")
        handles = [ThreadedServer(service).start() for service in (
            EstimationService.load(tmp_path / "old.snap"),
            EstimationService(num_shards=2))]
        try:
            with pytest.raises(ServiceError, match="not as the router's"):
                ThreadedClusterRouter(
                    [("127.0.0.1", handle.port) for handle in handles],
                    start_heartbeat=False).start()
        finally:
            for handle in handles:
                handle.stop()

    def test_each_worker_logs_its_rows_in_arrival_order(self, tmp_path):
        """The router's split keeps arrival order per owner, so a worker's
        WAL holds exactly the masked rows of the batch — byte for byte."""
        from repro.wal import WalWriter
        from repro.wal.framing import decode_payload
        from repro.wal.reader import read_wal

        handles = []
        for index in range(3):
            service = EstimationService(num_shards=2)
            service.attach_wal(WalWriter(tmp_path / f"w{index}", sync="none"))
            handles.append(ThreadedServer(service).start())
        boxes = synthetic_boxes(DOMAIN, 500, seed=77)
        rows = np.hstack([boxes.lows, boxes.highs])
        try:
            with ThreadedClusterRouter(
                    [("127.0.0.1", handle.port) for handle in handles],
                    start_heartbeat=False) as cluster:
                with ServiceClient("127.0.0.1", cluster.port) as client:
                    client.register("ranges", family="range",
                                    sizes=[256, 256], instances=8, seed=5)
                    client.ingest("ranges", boxes, side="data")
                    client.flush()
        finally:
            for handle in handles:
                handle.service.detach_wal()
                handle.stop()
        owner_of_row = np.array(["w0", "w1", "w2"])[shard_ids(boxes, 3)]
        assert len(set(owner_of_row)) == 3
        for index in range(3):
            updates = [event for event in map(
                decode_payload, (payload for _, payload in read_wal(
                    tmp_path / f"w{index}")[0])) if event["type"] == "update"]
            assert len(updates) == 1
            assert np.array_equal(updates[0]["rows"],
                                  rows[owner_of_row == f"w{index}"])

    def test_cluster_status_reports_topology(self, cluster):
        with ServiceClient("127.0.0.1", cluster.port) as client:
            status = client.cluster_status()
        assert status["healthy_workers"] == 3
        assert sorted(w["name"] for w in status["workers"]) == \
            ["w0", "w1", "w2"]

    def test_metrics_aggregate_the_fleet(self, cluster):
        with ServiceClient("127.0.0.1", cluster.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=8, seed=5)
            client.ingest("ranges", synthetic_boxes(DOMAIN, 50, seed=1),
                          side="data")
            client.estimate("ranges", synthetic_queries(DOMAIN, 1, seed=2))
            text = client.metrics()
        assert text.startswith("# repro cluster router metrics")
        assert "repro_cluster_workers_total 3" in text
        assert "repro_cluster_workers_healthy 3" in text
        assert 'repro_cluster_requests_total{op="estimate"}' in text
        # Per-worker counters are summed across the fleet: the ingest above
        # fanned to every owner, so workers saw ingests too.
        assert 'repro_cluster_worker_requests_total{op="ingest"}' in text
        assert 'repro_cluster_worker_uptime_seconds{worker="w0"}' in text
        # Fleet-aggregated delta-propagation and program-executor counters:
        # the estimate above forced at least one merged-view build somewhere.
        assert "repro_cluster_delta_applies_total" in text
        assert "repro_cluster_view_rebuilds_total" in text
        assert "repro_cluster_program_runs" in text

    def test_unknown_estimator_is_a_typed_error(self, cluster):
        with ServiceClient("127.0.0.1", cluster.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("missing")
            assert info.value.code == "bad_request"
            # The router connection survives the typed failure.
            assert client.ping()["cluster"] is True


class TestSnapshotWriteFormat:
    """Snapshots are written binary (v2).  The wire's ``format`` field is
    still accepted when it asks for that; the retired v1 writer is not."""

    def test_json_refused_alike_binary_written_otherwise(self, tmp_path):
        service = EstimationService(num_shards=2)
        service.register("ranges", family="range", domain=DOMAIN,
                         num_instances=32, seed=5)
        service.ingest("ranges", synthetic_boxes(DOMAIN, 200, seed=1),
                       side="data")
        query = synthetic_queries(DOMAIN, 1, seed=3)
        expected = service.estimate("ranges", query)

        def written_files(client, fmt, stem):
            request = {"op": "snapshot",
                       "path": str(tmp_path / f"{stem}.json")}
            if fmt is not None:
                request["format"] = fmt
            reply = client.request(request)
            # A server writes the path, a router one file per owner group.
            return list(reply.get("paths", {}).values()) or [reply["path"]]

        refusals = set()
        with ThreadedServer(service) as worker, ThreadedClusterRouter(
                [("127.0.0.1", worker.port)],
                start_heartbeat=False) as router:
            for edge, port in (("server", worker.port),
                               ("router", router.port)):
                with ServiceClient("127.0.0.1", port) as client:
                    refused = tmp_path / f"{edge}-refused"
                    reply, = client.request_many(
                        [{"op": "snapshot", "path": str(refused),
                          "format": "json"}])
                    refusals.add((reply["ok"], reply["error_code"],
                                  reply["error"]))
                    assert not list(tmp_path.glob(f"{refused.name}*"))
                    reply, = client.request_many(
                        [{"op": "save", "path": str(refused)}])
                    assert reply["error_code"] == "unknown_op"
                    for fmt in ("auto", "binary", None):
                        for path in written_files(client, fmt,
                                                  f"{edge}-{fmt}"):
                            restored = EstimationService.load(path).estimate(
                                "ranges", query)
                            assert restored.estimate == expected.estimate
                            assert np.array_equal(restored.instance_values,
                                                  expected.instance_values)
        (ok, code, message), = refusals  # one and the same typed error
        assert not ok and code == "bad_request" and "'json'" in message


class TestReplicas:
    def test_bootstrap_replicas_serve_bit_identical_reads(self, worker_trio):
        # Worker 0 accumulates data first; 1 and 2 join later as replicas
        # bootstrapped over the wire from its snapshot.
        addresses = [("127.0.0.1", worker_trio[0].port)]
        reference = EstimationService(num_shards=2)
        with ThreadedClusterRouter(
                addresses, start_heartbeat=False) as handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                _register_everywhere(client, reference)
                _ingest_everywhere(client, reference, count=200)
                for index in (1, 2):
                    handle.run(handle.router.bootstrap_replica(
                        f"r{index}", "127.0.0.1", worker_trio[index].port,
                        source="w0"))
                status = client.cluster_status()
                roles = {w["name"]: w["role"] for w in status["workers"]}
                assert roles == {"w0": "shard", "r1": "replica",
                                 "r2": "replica"}

                # Reads round-robin across the owner group; every member
                # answers bit-identically.
                queries = synthetic_queries(DOMAIN, 1, seed=23)
                expected = reference.estimate("ranges", queries).estimate
                for _ in range(6):
                    assert client.estimate("ranges",
                                           queries).estimate == expected

                # Writes fan to the primary AND the replicas, keeping the
                # mirrors exact for later reads.
                more = synthetic_boxes(DOMAIN, 150, seed=29)
                client.ingest("ranges", more, side="data")
                reference.ingest("ranges", more, side="data")
                client.flush()
                reference.flush()
                expected = reference.estimate("ranges", queries).estimate
                for _ in range(6):
                    assert client.estimate("ranges",
                                           queries).estimate == expected
        for index in (1, 2):
            view = worker_trio[index].service.merged_view("ranges")
            assert view.count == 350

    def test_a_replica_keeps_its_own_shard_count(self):
        """A bootstrap ships each name's summed sketch: a 2-shard worker
        bootstrapped from a 4-shard one stays at 2 shards, and routed
        estimates answer as one node — from either member of the group."""
        handles = [ThreadedServer(EstimationService(num_shards=shards),
                                  config=ServerConfig(max_batch=16,
                                                      max_delay=0.001)).start()
                   for shards in (4, 2)]
        reference = EstimationService(num_shards=1)
        try:
            with ThreadedClusterRouter([("127.0.0.1", handles[0].port)],
                                       start_heartbeat=False) as handle:
                with ServiceClient("127.0.0.1", handle.port) as client:
                    _register_everywhere(client, reference)
                    _ingest_everywhere(client, reference, count=200)
                    handle.run(handle.router.bootstrap_replica(
                        "r1", "127.0.0.1", handles[1].port, source="w0"))
                    assert [h.service.num_shards for h in handles] == [4, 2]
                    for seed in (37, 41):
                        requests, expected = _mixed_burst(reference, seed=seed)
                        _assert_answers(client.request_many(requests),
                                        expected)
            for member in handles:
                with ServiceClient("127.0.0.1", member.port) as direct:
                    requests, expected = _mixed_burst(reference, seed=43)
                    _assert_answers(direct.request_many(requests), expected)
        finally:
            for member in handles:
                member.stop()

    def test_a_replica_bootstrapped_under_live_ingest_mirrors_its_owner(
            self, worker_trio):
        """Ingest keeps flowing through the router while a replica
        bootstraps: every write is acked, and owner and replica hold every
        acked box and answer bit-identically — no write lands between the
        snapshot fetch and the replica's reload on one member only."""
        owner, mirror = worker_trio[0], worker_trio[1]
        acked: list[int] = []
        errors: list[Exception] = []
        bootstrapped = threading.Event()
        with ThreadedClusterRouter([("127.0.0.1", owner.port)],
                                   start_heartbeat=False) as handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=16, seed=5)

            def pump() -> None:
                with ServiceClient("127.0.0.1", handle.port) as client:
                    seed, after = 100, 0
                    while after < 20:
                        after += bootstrapped.is_set()
                        boxes = synthetic_boxes(DOMAIN, 50, seed=seed)
                        seed += 1
                        try:
                            acked.append(client.ingest(
                                "ranges", boxes, side="data")["boxes"])
                        except Exception as exc:
                            errors.append(exc)

            pumping = threading.Thread(target=pump)
            pumping.start()
            try:
                while len(acked) + len(errors) < 5:
                    time.sleep(0.001)
                handle.run(handle.router.bootstrap_replica(
                    "r1", "127.0.0.1", mirror.port, source="w0"))
            finally:
                bootstrapped.set()
                pumping.join()
            with ServiceClient("127.0.0.1", handle.port) as client:
                client.flush()
        assert errors == []
        for handle in (owner, mirror):
            assert handle.service.merged_view("ranges").count == sum(acked)
        query = synthetic_queries(DOMAIN, 1, seed=3)
        expected = owner.service.estimate("ranges", query)
        mirrored = mirror.service.estimate("ranges", query)
        assert (mirrored.instance_values.tobytes()
                == expected.instance_values.tobytes())

    def test_a_bootstrap_holds_writes_to_its_source_group_only(
            self, worker_trio):
        """While a replica of w0 bootstraps, a frame for w1 is applied and
        acked; a frame for w0 waits until the replica has reloaded, then
        reaches both members of w0's group."""
        boxes = synthetic_boxes(DOMAIN, 400, seed=57)
        group = shard_ids(boxes, 2)
        to_w0, to_w1 = (boxes[np.flatnonzero(group == index)]
                        for index in (0, 1))
        fetched, release = threading.Event(), threading.Event()
        with ThreadedClusterRouter(
                [("127.0.0.1", handle.port) for handle in worker_trio[:2]],
                start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=16, seed=5)
            fetch = handle.manager.fetch_snapshot

            async def slow_fetch(source):
                data = await fetch(source)
                fetched.set()
                while not release.is_set():
                    await asyncio.sleep(0.005)
                return data

            handle.manager.fetch_snapshot = slow_fetch
            booting = threading.Thread(target=handle.run, args=(
                handle.router.bootstrap_replica(
                    "r2", "127.0.0.1", worker_trio[2].port, source="w0"),))
            booting.start()

            def send_to_w0() -> None:
                with ServiceClient("127.0.0.1", handle.port) as other:
                    other.ingest("ranges", to_w0, side="data")

            held = threading.Thread(target=send_to_w0)
            try:
                assert fetched.wait(10)
                assert client.ingest("ranges", to_w1,
                                     side="data")["boxes"] == len(to_w1)
                held.start()
                time.sleep(0.2)
                assert held.is_alive()
            finally:
                release.set()
                booting.join()
                if held.ident:
                    held.join()
            client.flush()
        counts = [handle.service.merged_view("ranges").count
                  for handle in worker_trio]
        assert counts == [len(to_w0), len(to_w1), len(to_w0)]

    def test_a_name_registered_during_a_bootstrap_reaches_the_replica(
            self, worker_trio):
        """A ``register`` sent while a replica bootstraps waits for the
        replica to join, so both members serve the name: its ingest and
        every estimate, whichever member reads, succeed."""
        owner, mirror = worker_trio[0], worker_trio[1]
        fetched, release = threading.Event(), threading.Event()
        reference = EstimationService(num_shards=2)
        reference.register("late", family="range", domain=DOMAIN,
                           num_instances=16, seed=7)
        with ThreadedClusterRouter([("127.0.0.1", owner.port)],
                                   start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            client.register("early", family="range", sizes=[256, 256],
                            instances=16, seed=5)
            fetch = handle.manager.fetch_snapshot

            async def slow_fetch(source):
                data = await fetch(source)
                fetched.set()
                while not release.is_set():
                    await asyncio.sleep(0.005)
                return data

            handle.manager.fetch_snapshot = slow_fetch
            booting = threading.Thread(target=handle.run, args=(
                handle.router.bootstrap_replica(
                    "r1", "127.0.0.1", mirror.port, source="w0"),))
            booting.start()

            def register_late() -> None:
                with ServiceClient("127.0.0.1", handle.port) as other:
                    other.register("late", family="range", sizes=[256, 256],
                                   instances=16, seed=7)

            late = threading.Thread(target=register_late)
            try:
                assert fetched.wait(10)
                late.start()
                time.sleep(0.2)
            finally:
                release.set()
                booting.join(30)
                if late.ident:
                    late.join(30)
            assert not booting.is_alive() and not late.is_alive()
            for member in (owner, mirror):
                assert member.service.names() == ["early", "late"]
            boxes = synthetic_boxes(DOMAIN, 120, seed=9)
            assert client.ingest("late", boxes, side="data")["boxes"] == 120
            client.flush()
            reference.ingest("late", boxes, side="data")
            query = synthetic_queries(DOMAIN, 1, seed=11)
            expected = reference.estimate("late", query).estimate
            for _ in range(4):
                assert client.estimate("late", query).estimate == expected

    def test_a_replacement_from_a_live_member_misses_no_write(self,
                                                               worker_trio):
        """``replace_worker`` fetches a live member's snapshot inside the
        owner group's write gate: a routed write sent between
        the fetch and the reload reaches the replacement too, so replica
        and replacement hold the same boxes and answer one value."""
        owner, mirror, spare = worker_trio
        fetched, release = threading.Event(), threading.Event()
        with ThreadedClusterRouter([("127.0.0.1", owner.port)],
                                   start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=16, seed=5)
            client.ingest("ranges", synthetic_boxes(DOMAIN, 100, seed=1),
                          side="data")
            client.flush()
            handle.run(handle.router.bootstrap_replica(
                "r1", "127.0.0.1", mirror.port, source="w0"))
            handle.manager.worker("w0").healthy = False
            fetch = handle.manager.fetch_snapshot

            async def slow_fetch(source):
                data = await fetch(source)
                fetched.set()
                while not release.is_set():
                    await asyncio.sleep(0.005)
                return data

            handle.manager.fetch_snapshot = slow_fetch
            replacing = threading.Thread(target=handle.run, args=(
                handle.manager.replace_worker(
                    "w0", "127.0.0.1", spare.port),))
            replacing.start()

            def write() -> None:
                with ServiceClient("127.0.0.1", handle.port) as other:
                    other.ingest("ranges", synthetic_boxes(DOMAIN, 100, seed=2),
                                 side="data")

            writing = threading.Thread(target=write)
            try:
                assert fetched.wait(10)
                writing.start()
                time.sleep(0.2)
            finally:
                release.set()
                replacing.join(30)
                if writing.ident:
                    writing.join(30)
            assert not replacing.is_alive() and not writing.is_alive()
            client.flush()
            assert [info.name for info in handle.manager.writers("w0")] == [
                "w0", "r1"]
            query = synthetic_queries(DOMAIN, 1, seed=3)
            answers = {client.estimate("ranges", query).estimate
                       for _ in range(6)}
        assert [member.service.merged_view("ranges").count
                for member in (mirror, spare)] == [200, 200]
        assert len(answers) == 1

    def test_a_failed_bootstrap_leaves_the_group_as_it_was(self, worker_trio):
        owner, mirror = worker_trio[0], worker_trio[1]
        with ThreadedClusterRouter([("127.0.0.1", owner.port)],
                                   start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=16, seed=5)

            async def garbage(source):
                return b"not a snapshot"

            handle.manager.fetch_snapshot = garbage
            with pytest.raises(ServerError):
                handle.run(handle.router.bootstrap_replica(
                    "r1", "127.0.0.1", mirror.port, source="w0"))
            assert "r1" not in handle.manager
            assert [info.name for info in handle.manager.writers("w0")] == [
                "w0"]
            client.ingest("ranges", synthetic_boxes(DOMAIN, 40, seed=1),
                          side="data")
            client.flush()
        assert owner.service.merged_view("ranges").count == 40
        assert mirror.service.names() == []

    def test_an_unhealthy_replica_stays_out_until_replaced(self, worker_trio):
        """A replica that missed heartbeats may have missed writes: good
        pings alone never bring it back, a fresh snapshot of its owner
        does."""
        owner, mirror = worker_trio[0], worker_trio[1]
        with ThreadedClusterRouter(
                [("127.0.0.1", owner.port)], start_heartbeat=False) as handle, \
                ServiceClient("127.0.0.1", handle.port) as client:
            manager = handle.manager
            client.register("ranges", family="range", sizes=[256, 256],
                            instances=16, seed=5)
            client.ingest("ranges", synthetic_boxes(DOMAIN, 200, seed=1),
                          side="data")
            client.flush()
            handle.run(handle.router.bootstrap_replica(
                "r1", "127.0.0.1", mirror.port, source="w0"))

            link = manager.worker("r1").link
            answer = link.request_ok

            async def drop_pings(payload, timeout=None):
                if payload["op"] == "ping":
                    raise ConnectionLostError("ping dropped")
                return await answer(payload, timeout)

            link.request_ok = drop_pings
            for _ in range(HEARTBEAT_MAX_FAILURES):
                handle.run(manager.heartbeat_once())
            del link.request_ok  # its pings answer again
            for _ in range(2):
                assert handle.run(manager.heartbeat_once()) == {
                    "r1": False, "w0": True}
            assert [info.name for info in manager.writers("w0")] == ["w0"]
            assert {manager.reader("w0").name for _ in range(4)} == {"w0"}

            # Writes continue to the owner alone.
            client.ingest("ranges", synthetic_boxes(DOMAIN, 100, seed=2),
                          side="data")
            client.flush()
            assert owner.service.merged_view("ranges").count == 300
            assert mirror.service.merged_view("ranges").count == 200

            handle.run(manager.replace_worker("r1", "127.0.0.1", mirror.port))
            assert [info.name for info in manager.writers("w0")] == [
                "w0", "r1"]
            queries = synthetic_queries(DOMAIN, 1, seed=3)
            expected = owner.service.estimate("ranges", queries)
            replayed = mirror.service.estimate("ranges", queries)
            assert (replayed.instance_values.tobytes()
                    == expected.instance_values.tobytes())
            # Reads round-robin over both members again.
            for _ in range(4):
                assert client.estimate("ranges",
                                       queries).estimate == expected.estimate

    @pytest.mark.parametrize("recovers", [False, True],
                             ids=["misses-in-a-row", "a-ping-answers-between"])
    def test_a_worker_leaves_rotation_after_its_last_allowed_missed_ping(
            self, worker_trio, recovers):
        """Missed pings count in a row: a worker stays healthy until it has
        missed ``HEARTBEAT_MAX_FAILURES`` of them, and a ping it answers
        while healthy starts the count again."""
        with ThreadedClusterRouter([("127.0.0.1", worker_trio[0].port)],
                                   start_heartbeat=False) as handle:
            manager = handle.manager
            link = manager.worker("w0").link
            answer = link.request_ok

            async def drop_pings(payload, timeout=None):
                if payload["op"] == "ping":
                    raise ConnectionLostError("ping dropped")
                return await answer(payload, timeout)

            def beats(count):
                return [handle.run(manager.heartbeat_once())["w0"]
                        for _ in range(count)]

            link.request_ok = drop_pings
            assert beats(HEARTBEAT_MAX_FAILURES - 1) == [True] * (
                HEARTBEAT_MAX_FAILURES - 1)
            if recovers:
                del link.request_ok
                assert beats(1) == [True]
                link.request_ok = drop_pings
                assert beats(HEARTBEAT_MAX_FAILURES - 1) == [True] * (
                    HEARTBEAT_MAX_FAILURES - 1)
            else:
                assert beats(1) == [False]

    def test_replica_of_unknown_source_is_rejected(self, cluster, worker_trio):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            cluster.run(cluster.router.bootstrap_replica(
                "r9", "127.0.0.1", worker_trio[0].port, source="nope"))


@pytest.mark.skipif(os.name != "posix", reason="POSIX process management")
class TestKillReplace:
    def test_worker_death_degrades_then_replacement_restores(self, tmp_path):
        """Acceptance e2e: kill 1 of 3 workers mid-traffic.

        Surviving ingest continues (partial-apply with a structured
        degraded error), affected estimates return structured degraded
        errors, and a replacement bootstrapped from a pre-crash snapshot
        restores exact service.
        """
        with LocalFleet(3) as fleet:
            with ThreadedClusterRouter(
                    fleet.addresses(), start_heartbeat=False) as handle:
                reference = EstimationService(num_shards=2)
                client = ServiceClient("127.0.0.1", handle.port, timeout=60)
                client.register("ranges", family="range", sizes=[256, 256],
                                instances=16, seed=5)
                reference.register("ranges", family="range", domain=DOMAIN,
                                   num_instances=16, seed=5)
                initial = synthetic_boxes(DOMAIN, 200, seed=1)
                client.ingest("ranges", initial, side="data")
                reference.ingest("ranges", initial, side="data")
                client.flush()
                reference.flush()

                # An operator keeps a recent snapshot of w1 around (here:
                # fetched over the wire just before the crash).
                stored = tmp_path / "w1.snap"
                stored.write_bytes(handle.run(handle.manager.fetch_snapshot("w1")))

                fleet.workers[1].stop()
                for _ in range(HEARTBEAT_MAX_FAILURES):
                    handle.run(handle.manager.heartbeat_once())
                status = client.cluster_status()
                health = {w["name"]: w["healthy"] for w in status["workers"]}
                assert health == {"w0": True, "w1": False, "w2": True}

                # Estimates that need the dead owner fail with a *typed*
                # degraded error naming it.
                queries = synthetic_queries(DOMAIN, 1, seed=23)
                with pytest.raises(DegradedError) as info:
                    client.estimate("ranges", queries)
                assert info.value.detail["down_owners"] == ["w1"]

                # Ingest keeps flowing to survivors: the reply is a
                # degraded error carrying exact applied/dropped accounting.
                more = synthetic_boxes(DOMAIN, 200, seed=31)
                with pytest.raises(DegradedError) as info:
                    client.ingest("ranges", more, side="data")
                detail = info.value.detail
                # w1 is the second of the three owners sorted by name.
                mask = shard_ids(more, 3) != 1
                assert detail["applied"] == int(mask.sum())
                assert detail["dropped"] == len(more) - int(mask.sum())
                assert detail["down_owners"] == ["w1"]
                reference.ingest(
                    "ranges",
                    BoxSet(more.lows[mask], more.highs[mask]),
                    side="data")
                reference.flush()

                # Start a replacement from the stored snapshot under the
                # same name: the partition stays put, service is restored.
                replacement = fleet.spawn_extra(snapshot=str(stored))
                handle.run(handle.manager.replace_worker(
                    "w1", replacement.host, replacement.port))
                client.flush()
                status = client.cluster_status()
                assert all(w["healthy"] for w in status["workers"])
                assert [w["generation"] for w in status["workers"]
                        if w["name"] == "w1"] == [1]

                expected = reference.estimate("ranges", queries).estimate
                assert client.estimate("ranges",
                                       queries).estimate == expected
                client.close()
