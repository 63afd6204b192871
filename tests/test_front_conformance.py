"""One serving front, two placements: a server and a router answer alike.

:class:`~repro.server.SketchServer` and
:class:`~repro.cluster.ClusterRouter` share one connection / auth /
admission / dispatch / tenant implementation
(:mod:`repro.server.front`).  The transcript test pins that: one request
stream, replayed against a server and against a one-worker router on both
wire formats, yields equal replies outside an explicit allow-list.  The
remaining tests pin four behaviours the two copies had drifted apart on:
ingest quota on the binary wire, routed ``checkpoint``, worker errors
passing through a router unchanged, and admin ``tenant describe``.
"""

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster import RouterConfig, ThreadedClusterRouter
from repro.core.domain import Domain
from repro.errors import QuotaExceededError, ServerError
from repro.server import ServerConfig, ThreadedServer, boxes_to_rows
from repro.server.protocol import query_box
from repro.service import EstimationService, EstimatorSpec, synthetic_boxes
from repro.tenancy import TenantQuota, TenantRegistry
from repro.wal import WalWriter

from tests.routing import RouterThread

pytestmark = pytest.mark.e2e

DOMAIN = Domain.square(256, dimension=2)
WIRES = ("ndjson", "binary")
PLACEMENTS = ("server", "router")
ADMIN_TOKEN = "root-secret"
FLEET_TOKEN = "fleet-secret"
ACME_TOKEN = "acme-secret"


class Placement:
    """A running front of either placement, over fresh two-shard services."""

    def __init__(self, kind: str, *, tokens: bool = False,
                 wal_dir=None) -> None:
        service = EstimationService(num_shards=2)
        if wal_dir is not None:
            service.attach_wal(WalWriter(str(wal_dir), sync="none"))
        # The service every request ends up in: the server itself, or the
        # router's only worker.
        self.backing = ThreadedServer(service, config=ServerConfig(
            max_batch=16, max_delay=0.001,
            admin_token=((FLEET_TOKEN if kind == "router" else ADMIN_TOKEN)
                         if tokens else None))).start()
        self.handle = self.backing
        if kind == "router":
            self.handle = RouterThread(
                [("127.0.0.1", self.backing.port)], RouterConfig(
                    admin_token=ADMIN_TOKEN if tokens else None,
                    worker_token=FLEET_TOKEN if tokens else None))
            if tokens:  # what enable_tenancy() is to the server
                self.handle.router.tenants = TenantRegistry()
            self.handle.start()
        elif tokens:
            service.enable_tenancy()

    def client(self, wire: str, token: str | None = None) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.handle.port, wire=wire,
                             token=token)

    def stop(self) -> None:
        if self.handle is not self.backing:
            self.handle.stop()
        if self.backing.service.wal is not None:
            self.backing.service.detach_wal()
        self.backing.stop()


@pytest.fixture()
def placement():
    started = []

    def start(kind: str, **options) -> Placement:
        started.append(Placement(kind, **options))
        return started[-1]

    yield start
    for entry in started:
        entry.stop()


# -- transcript conformance -----------------------------------------------------

RANGE = {"family": "range", "sizes": [256, 256], "instances": 16, "seed": 2}
ROWS = [[0, 0, 10, 10], [5, 5, 50, 60], [100, 20, 200, 90]]

#: The request stream, in windows.  A front runs the requests of one
#: pipelined window concurrently, so a window holds only requests that do
#: not depend on one another, and ``flush`` gets a window of its own.
TRANSCRIPT = [
    [("ping", {"op": "ping"}),
     ("register ok", {"op": "register", "name": "rq", **RANGE}),
     ("register join", {"op": "register", "name": "join",
                        "family": "rectangle", "sizes": [256, 256],
                        "instances": 16, "seed": 3}),
     ("register unknown family", {"op": "register", "name": "bad",
                                  "family": "nope", "sizes": [256, 256]}),
     ("register interval in 2-d", {"op": "register", "name": "bad2",
                                   "family": "interval", "sizes": [256, 256]}),
     ("register rectangle in 1-d", {"op": "register", "name": "bad1",
                                    "family": "rectangle", "sizes": [256]}),
     ("register missing name", {"op": "register", **RANGE})],
    [("register duplicate", {"op": "register", "name": "rq", **RANGE}),
     ("ingest ok", {"op": "ingest", "name": "rq", "side": "data",
                    "boxes": ROWS}),
     ("ingest unknown name", {"op": "ingest", "name": "ghost",
                              "boxes": ROWS}),
     ("ingest ragged rows", {"op": "ingest", "name": "rq", "side": "data",
                             "boxes": [[0, 0, 10, 10], [1, 2, 3]]}),
     ("ingest bad side", {"op": "ingest", "name": "rq", "side": "inner",
                          "boxes": ROWS}),
     ("ingest missing boxes", {"op": "ingest", "name": "rq",
                               "side": "data"})],
    [("flush", {"op": "flush"})],
    [("estimate ok", {"op": "estimate", "name": "rq",
                      "query": [0, 0, 128, 128]}),
     ("estimate missing query", {"op": "estimate", "name": "rq"}),
     ("estimate query on a join", {"op": "estimate", "name": "join",
                                   "query": [0, 0, 9, 9]}),
     ("estimate unknown name", {"op": "estimate", "name": "ghost"}),
     # Beside "estimate ok" on purpose: the coalescer answers them in one
     # batch, and only the offender may get the error.
     ("estimate out of domain", {"op": "estimate", "name": "rq",
                                 "query": [0, 0, 999, 999]}),
     ("unknown op", {"op": "frobnicate"}),
     ("snapshot format json", {"op": "snapshot", "path": "unused.snap",
                               "format": "json"}),
     ("tenant list", {"op": "tenant", "action": "list"}),
     ("tenant unknown action", {"op": "tenant", "action": "promote"}),
     ("tenant create without a subject", {"op": "tenant",
                                          "action": "create"}),
     ("estimate name is a list", {"op": "estimate", "name": ["rq"]}),
     ("snapshot path is a number", {"op": "snapshot", "path": 5}),
     ("unregister unknown", {"op": "unregister", "name": "ghost"}),
     ("stats", {"op": "stats"}),
     ("metrics", {"op": "metrics"}),
     ("reload", {"op": "reload"}),
     ("snapshot without a path", {"op": "snapshot"})],
    [("unregister ok", {"op": "unregister", "name": "rq"})],
    [("estimate after unregister", {"op": "estimate", "name": "rq",
                                    "query": [0, 0, 128, 128]})],
]

#: The only permitted differences between the placements: for these
#: requests just the listed reply keys are compared.  ``ping`` differs in
#: its ``cluster`` flag; the ``stats`` / ``metrics`` bodies describe
#: different processes; ``reload`` and a path-less ``snapshot`` are
#: worker-level ops a router refuses in its own words.
ALLOWED_DIFFERENCES = {
    "ping": ("ok", "op", "id", "version"),
    "stats": ("ok", "op", "id"),
    "metrics": ("ok", "op", "id"),
    "reload": ("ok", "op", "id", "error_code"),
    "snapshot without a path": ("ok", "op", "id", "error_code"),
}


def _replay(front: Placement, wire: str) -> dict[str, dict]:
    replies: dict[str, dict] = {}
    number = 0
    with front.client(wire) as client:
        assert client.wire == wire
        for window in TRANSCRIPT:
            requests = []
            for _label, request in window:
                number += 1
                request = {**request, "id": number}
                if wire == "binary" and request.get("boxes") is ROWS:
                    # What ServiceClient.ingest sends on this wire: a tensor.
                    request["boxes"] = np.asarray(ROWS, dtype=np.int64)
                requests.append(request)
            for (label, _), reply in zip(window,
                                         client.request_many(requests)):
                keys = ALLOWED_DIFFERENCES.get(label)
                replies[label] = (reply if keys is None else
                                  {key: reply.get(key) for key in keys})
    return replies


@pytest.mark.parametrize("wire", WIRES)
def test_server_and_router_answer_one_transcript_alike(placement, wire):
    by_server = _replay(placement("server"), wire)
    by_router = _replay(placement("router"), wire)
    assert list(by_server) == list(by_router)
    for label, reply in by_server.items():
        assert by_router[label] == reply, label
    # The stream exercised what it claims to: these succeed, the rest of
    # the probes are typed errors.
    succeeded = {label for label, reply in by_server.items()
                 if reply.get("ok")}
    assert succeeded == {
        "ping", "register ok", "register join", "ingest ok", "flush",
        "estimate ok", "tenant list", "stats", "metrics", "unregister ok"}
    assert by_server["unknown op"]["error_code"] == "unknown_op"
    assert by_server["estimate ok"]["left_count"] == len(ROWS)
    assert by_server["ingest bad side"]["error"].startswith("ServiceError: ")
    # ``interval`` / ``rectangle`` build the one join class on a domain of
    # their own dimension, and refuse another as the library does.
    for label in ("register interval in 2-d", "register rectangle in 1-d"):
        assert by_server[label]["error_code"] == "bad_request", label
        assert by_server[label]["error"].startswith("DimensionalityError: "), label
    # Malformed requests answer in protocol terms — a bad_request naming the
    # op and the field, never a leaked KeyError / TypeError — and the
    # connection stays open (every later window above was answered on it).
    for label, said in (
            ("register missing name", "register: missing field 'name'"),
            ("ingest missing boxes", "ingest: missing field 'boxes'"),
            ("tenant create without a subject",
             "tenant create: missing field 'tenant'"),
            ("tenant unknown action", "tenant: field 'action' must be one of"),
            ("estimate name is a list",
             "estimate: field 'name' must be string, got list"),
            ("snapshot path is a number",
             "snapshot: field 'path' must be string, got int")):
        assert by_server[label]["error_code"] == "bad_request", label
        assert said in by_server[label]["error"], label


# -- a default register writes its level caps into the spec, once ---------------


@pytest.mark.parametrize("wire", WIRES)
def test_register_without_max_levels_writes_the_same_caps_everywhere(
        placement, wire, caplog):
    """The front that takes the request derives the caps; the reply, the
    service that ends up holding the name and a router's template all
    carry them explicitly — nobody derives twice.  Both names, caps given
    or derived, get the level-split counters of a new range spec."""
    specs = {}
    for kind in PLACEMENTS:
        front = placement(kind)
        caplog.clear()
        with caplog.at_level("INFO", logger="repro.xi"), \
                front.client(wire) as client:
            specs[kind] = client.request(
                {"op": "register", "name": "rq", **RANGE})["spec"]
            given = client.request({"op": "register", "name": "full", **RANGE,
                                    "max_levels": [8, None]})["spec"]
        assert given["max_levels"] == [8, None]     # the height: uncapped
        served = front.backing.service.spec("rq")
        assert served.to_dict() == specs[kind]
        said = [record.getMessage() for record in caplog.records
                if record.getMessage().startswith("register ")]
        if kind == "router":
            assert front.handle.router._specs["rq"][0] == served
            # The router derived; its worker was handed the result.
            assert said == ["register rq: level caps [5, 5] derived",
                            "register rq: level caps [5, 5] given",
                            "register full: level caps [8, None] given",
                            "register full: level caps [8, None] given"]
        else:
            assert said == ["register rq: level caps [5, 5] derived",
                            "register full: level caps [8, None] given"]
    assert specs["server"] == specs["router"]
    assert specs["server"]["max_levels"] == [5, 5]
    assert specs["server"]["split_levels"] is given["split_levels"] is True


# -- a level-split range burst answers like the in-process scalar path ---------


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_a_split_range_burst_answers_like_a_scalar_reference(placement, kind):
    """A new range name is level-split: each estimate regresses the
    whole-domain control out of its instances row by row.  A pipelined
    burst, coalesced into batches with refused rows among its queries,
    answers every good row bit for bit what an in-process service answers
    it alone; each refused row gets its own ``bad_request``."""
    front = placement(kind)
    boxes = synthetic_boxes(DOMAIN, 400, seed=4)
    rng = np.random.default_rng(4)
    corners = np.sort(rng.integers(0, 256, size=(20, 2, 2)), axis=1)
    rows = [[*low, *high] for low, high in corners.tolist()]
    refused = {3: [9, 9, 3, 3], 11: [0, 0, 300, 9]}
    for index, row in refused.items():
        rows.insert(index, row)
    with front.client("binary") as client:
        spec = client.register("rq", **RANGE)["spec"]
        client.ingest("rq", boxes, side="data")
        client.flush()
        replies = client.request_many(
            [{"op": "estimate", "name": "rq", "query": row} for row in rows])
    reference = EstimationService(num_shards=1)
    reference.register("rq", EstimatorSpec.from_dict(spec))
    reference.ingest("rq", boxes, side="data")
    assert reference.spec("rq").split_levels
    for index, (row, reply) in enumerate(zip(rows, replies)):
        if index in refused:
            assert reply["error_code"] == "bad_request", reply
            continue
        expected = reference.estimate("rq", query_box(row))
        assert reply["estimate"] == expected.estimate, index
        assert 0.0 <= reply["estimate"] <= len(boxes)


# -- drift (a): the ingest quota counts rows on every wire ----------------------


@pytest.mark.parametrize("kind", PLACEMENTS)
@pytest.mark.parametrize("wire", WIRES)
def test_ingest_quota_charges_rows_on_both_wires(placement, kind, wire):
    front = placement(kind, tokens=True)
    with front.client(wire, ADMIN_TOKEN) as admin:
        admin.tenant("create", tenant="acme", token=ACME_TOKEN,
                     quota={"ingest_boxes_per_sec": 10,
                            "ingest_burst_boxes": 10})
        boxes = synthetic_boxes(DOMAIN, 500, seed=3)
        with front.client(wire, ACME_TOKEN) as acme:
            acme.register("rq", **RANGE)
            # The debt model admits one oversized frame; its 490-box debt
            # then blocks the next one.
            assert acme.ingest("rq", boxes, side="data")["boxes"] == 500
            with pytest.raises(QuotaExceededError) as info:
                acme.ingest("rq", boxes, side="data")
            assert info.value.retry_after > 0.0
        described = admin.tenant("describe", tenant="acme")
    assert described["admission"]["ingest_tokens"] < 0


# -- the tenant label is the authenticated one ----------------------------------


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_a_tenant_cannot_relabel_its_requests(placement, kind):
    """A ``tenant`` field written by a tenant connection is overwritten
    with the authenticated tenant; only an admin link — a router's worker
    links are — may name the tenant it acts for.  Checked where the label
    ends up: the metrics of the process that holds the service."""
    front = placement(kind, tokens=True)
    labelled = {"op": "ingest", "name": "rq", "side": "data", "boxes": ROWS}
    with front.client("ndjson", ADMIN_TOKEN) as admin:
        admin.tenant("create", tenant="acme", token=ACME_TOKEN)
        admin.tenant("create", tenant="other", token="other-secret")
        with front.client("ndjson", ACME_TOKEN) as acme:
            acme.register("rq", **RANGE)
            replies = acme.request_many([
                {**labelled, "tenant": "other"},
                {"op": "estimate", "name": "rq", "query": [0, 0, 128, 128],
                 "tenant": "other"}])
            assert [reply["ok"] for reply in replies] == [True, True]
            assert replies[1]["left_count"] == len(ROWS)   # acme's own rq
        (on_behalf,) = admin.request_many([{**labelled, "tenant": "acme"}])
        assert on_behalf["ok"]
    edge = (front.handle.router if kind == "router" else front.handle.server)
    for metrics in (edge.metrics, front.backing.server.metrics):
        assert "other" not in metrics.tenant_state()
    assert front.backing.server.metrics.tenant_state()["acme"]["by_op"] == {
        "estimate": 1, "ingest": 2, "register": 1}
    assert front.backing.service.names() == ["acme/rq"]


# -- one estimate handler --------------------------------------------------------


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_both_placements_time_estimates_in_the_shared_handler(placement,
                                                             kind):
    """A server and a router answer ``estimate`` through the front's one
    handler: each answered query lands in the edge's latency window and
    in its tenant's, under the authenticated label, and the edge's
    ``stats`` reports the coalescer that batched it."""
    front = placement(kind, tokens=True)
    edge = (front.handle.router if kind == "router" else front.handle.server)
    estimate = {"op": "estimate", "name": "rq", "query": [0, 0, 128, 128]}
    with front.client("binary", ADMIN_TOKEN) as admin:
        admin.tenant("create", tenant="acme", token=ACME_TOKEN)
        with front.client("binary", ACME_TOKEN) as acme:
            acme.register("rq", **RANGE)
            acme.ingest("rq", ROWS, side="data")
            acme.flush()
            before = len(edge.metrics.latencies)
            replies = acme.request_many([estimate] * 5)
            assert [reply["left_count"] for reply in replies] == [3] * 5
        server = admin.stats()["server"]
    assert len(edge.metrics.latencies) - before == 5
    assert len(edge.metrics.tenants["acme"].latencies) == 5
    assert edge.metrics.tenant_state()["acme"]["by_op"]["estimate"] == 5
    assert 1 <= server["coalesce_batches"] <= 5
    assert server["queue_depth"] == 0


# -- a frame the flush could not apply is refused before the log ----------------

#: Boxes a flush would fail on: one coordinate outside the 256 x 256 domain
#: beside three good boxes, non-degenerate boxes on a point side, and a
#: zero-extent box on the side a join's endpoint transform shrinks.
UNAPPLIABLE = [("rq", "data", [[0, 0, 10, 10], [5, 5, 300, 20], [1, 1, 2, 2],
                               [3, 3, 4, 4]]),
               ("eps", "left", ROWS),
               ("join", "right", [[0, 0, 10, 10], [5, 5, 5, 60]])]


@pytest.mark.parametrize("kind", PLACEMENTS)
@pytest.mark.parametrize("wire", WIRES)
def test_an_unappliable_frame_is_refused_before_the_log(placement, kind, wire,
                                                        tmp_path):
    """Such a frame used to be acked and logged, then raise half-way
    through the next flush, dropping other names' buffered boxes with it
    (and failing every recovery of the log).  Now it is a bad_request that
    leaves the buffer and the log as they were."""
    front = placement(kind, wal_dir=tmp_path / "wal")
    service = front.backing.service
    good = synthetic_boxes(DOMAIN, 4, seed=6)
    with front.client(wire) as client:
        client.register("rq", **RANGE)
        client.register("other", **RANGE)
        client.register("eps", family="epsilon", sizes=[256, 256],
                        instances=16, seed=4, epsilon=2)
        client.register("join", family="rectangle", sizes=[256, 256],
                        instances=16, seed=3)
        client.ingest("other", good, side="data")
        pending, logged = service.pending, service.wal.last_seqno
        for name, side, rows in UNAPPLIABLE:
            with pytest.raises(ServerError) as info:
                client.ingest(name, rows, side=side)
            assert info.value.code == "bad_request", name
            assert str(info.value).startswith("ServiceError: "), name
        assert (service.pending, service.wal.last_seqno) == (pending, logged)
        assert client.flush()["boxes"] == 4
        assert client.estimate("other", [0, 0, 255, 255]).left_count == 4


def test_a_router_refuses_the_whole_frame_before_any_worker_sees_it():
    """Split between two owners, the good half of a refused frame would
    have been applied by its owner; the router checks the frame first."""
    services = [EstimationService(num_shards=2) for _ in range(2)]
    servers = [ThreadedServer(service).start() for service in services]
    try:
        with ThreadedClusterRouter(
                [("127.0.0.1", server.port) for server in servers],
                start_heartbeat=False) as router, \
                ServiceClient("127.0.0.1", router.port) as client:
            client.register("rq", **RANGE)
            rows = boxes_to_rows(synthetic_boxes(DOMAIN, 64, seed=7))
            rows[-1][2] = 256
            with pytest.raises(ServerError) as info:
                client.ingest("rq", rows, side="data")
            assert info.value.code == "bad_request"
            assert [service.pending for service in services] == [0, 0]
            client.ingest("rq", rows[:-1], side="data")
            assert all(service.pending for service in services)
    finally:
        for server in servers:
            server.stop()


# -- drift (b): a router never acknowledges a checkpoint it did not make --------


def test_routed_checkpoint_is_refused_and_a_worker_still_truncates(
        placement, tmp_path):
    front = placement("router", wal_dir=tmp_path / "wal")
    with front.client("binary") as routed:
        routed.register("rq", **RANGE)
        routed.ingest("rq", synthetic_boxes(DOMAIN, 200, seed=4), side="data")
        routed.flush()
        with ServiceClient("127.0.0.1", front.backing.port) as worker:
            logged = worker.stats()["wal"]["bytes"]
            assert logged > 0
            with pytest.raises(ServerError) as info:
                routed.checkpoint()
            assert info.value.code == "bad_request"
            assert "worker-level" in str(info.value)
            assert worker.stats()["wal"]["bytes"] == logged
            # The plain routed snapshot still works, and the verb still
            # truncates where it belongs.
            assert routed.snapshot(str(tmp_path / "routed.snap"))["paths"]
            assert worker.checkpoint()["checkpoint"]
            assert worker.stats()["wal"]["bytes"] < logged


# -- drifts (c) and (d) ---------------------------------------------------------


def test_worker_errors_pass_through_a_router_unchanged(placement):
    front = placement("router", tokens=True)
    with front.client("binary", ADMIN_TOKEN) as admin:
        admin.tenant("create", tenant="acme", token=ACME_TOKEN)
        admin.register("rq", **RANGE)
        bad_side = {"op": "ingest", "name": "rq", "side": "inner",
                    "boxes": ROWS}
        with ServiceClient("127.0.0.1", front.backing.port,
                           token=FLEET_TOKEN) as worker:
            direct = worker.request_many([bad_side])[0]
        routed = admin.request_many([bad_side])[0]
        assert routed == direct
        assert routed["error"].startswith("ServiceError: family 'range'")


def test_a_worker_verdict_keeps_its_detail_through_a_router():
    """``retry_after`` survives the hop.  The router here fronts a shared
    server as one of its tenants (the worker link carries a tenant token),
    so the quota verdict is the worker's, not the router's open edge's."""
    service = EstimationService(num_shards=2)
    service.tenant_create("acme", token=ACME_TOKEN, quota=TenantQuota(
        ingest_boxes_per_sec=10.0, ingest_burst_boxes=10.0))
    ingest = {"op": "ingest", "name": "rq", "side": "data",
              "boxes": boxes_to_rows(synthetic_boxes(DOMAIN, 500, seed=5))}
    with ThreadedServer(service) as worker, RouterThread(
            [("127.0.0.1", worker.port)],
            RouterConfig(worker_token=ACME_TOKEN)) as router:
        with ServiceClient("127.0.0.1", router.port) as routed, \
                ServiceClient("127.0.0.1", worker.port,
                              token=ACME_TOKEN) as direct:
            routed.register("rq", **RANGE)
            assert routed.request_many([ingest])[0]["ok"]
            refused = routed.request_many([ingest])[0]
            expected = direct.request_many([ingest])[0]
    assert refused["error_code"] == "quota_exceeded"
    assert refused["error"] == expected["error"]
    assert refused["error"].startswith("QuotaExceededError: tenant")
    assert refused["detail"]["retry_after"] > 0.0
    assert sorted(refused) == sorted(expected)


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_admin_tenant_describe_has_one_key_set(placement, kind):
    front = placement(kind, tokens=True)
    with front.client("ndjson", ADMIN_TOKEN) as admin:
        admin.tenant("create", tenant="acme", token=ACME_TOKEN,
                     quota={"ingest_boxes_per_sec": 1000})
        assert "admission" not in admin.tenant("describe", tenant="acme")
        with front.client("ndjson", ACME_TOKEN) as acme:
            acme.register("rq", **RANGE)
            acme.ingest("rq", ROWS, side="data")
            own = acme.tenant("describe")
        described = admin.tenant("describe", tenant="acme")
    assert sorted(described) == ["action", "admission", "metrics", "ok", "op",
                                 "record", "tenant"]
    assert sorted(own) == sorted(described)
    assert "token_hash" in described["record"]
    assert "token_hash" not in own["record"]
