"""Command-line interface.

``repro-spatial`` (or ``python -m repro.cli``) regenerates the paper's
figures and the ablation studies from the command line::

    repro-spatial list
    repro-spatial run figure5 --scale laptop
    repro-spatial run figure9 figure10 figure11 --scale tiny --seed 3
    repro-spatial all --scale laptop --output results.txt

It also drives the sharded sketch service (:mod:`repro.service`)::

    repro-spatial ingest --snapshot svc.snap --name join --family rectangle \\
        --sizes 1024x1024 --count 5000 --side left
    repro-spatial estimate --snapshot svc.snap --name join
    repro-spatial estimate --snapshot svc.snap --name ranges \\
        --batch-file queries.jsonl                # JSON-lines in/out
    repro-spatial estimate --snapshot svc.snap --name ranges \\
        --query 0,0,63,63 --explain               # print the compiled program
    repro-spatial serve --snapshot svc.snap        # JSON-lines loop on stdio
    repro-spatial serve --snapshot svc.snap --listen 127.0.0.1:7007  # TCP

With ``--listen`` the server speaks the newline-delimited JSON protocol of
:mod:`repro.server` (request coalescing, admission control, hot reload);
one-shot ``estimate``/``ingest`` invocations can then reuse that running
server with ``--connect host:port`` instead of paying a snapshot restore
per invocation (the ``--snapshot`` offline path remains the fallback).

Snapshots are the binary v2 format (raw counter tensors, memory-mapped
restores) whatever the path's suffix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Sequence


from repro.errors import ReproError
from repro.geometry.boxset import BoxSet

#: The verbs that run the paper's experiments.  Only they import
#: ``repro.experiments`` (~40 ms): every ``serve`` / ``cluster route`` spawn
#: would otherwise pay for figure code it never runs.
EXPERIMENT_COMMANDS = frozenset({"list", "run", "all"})


def _build_parser(*, experiments: bool = True) -> argparse.ArgumentParser:
    """The full parser; ``experiments=False`` leaves the experiment verbs
    without their arguments (whose choices need ``repro.experiments``)."""
    parser = argparse.ArgumentParser(
        prog="repro-spatial",
        description="Reproduce the experiments of 'Approximation Techniques for Spatial Data'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments and scales")
    run = sub.add_parser("run", help="run one or more experiments")
    everything = sub.add_parser("all", help="run every experiment")
    if experiments:
        from repro.experiments.config import SCALES
        from repro.experiments.figures import FIGURES

        run.add_argument("experiments", nargs="+", choices=sorted(FIGURES),
                         help="experiment identifiers (e.g. figure5)")
        run.add_argument("--scale", default="laptop", choices=sorted(SCALES),
                         help="experiment scale (default: laptop)")
        run.add_argument("--seed", type=int, default=0, help="base random seed")
        run.add_argument("--output", type=str, default=None,
                         help="append the result tables to this file")

        everything.add_argument("--scale", default="laptop", choices=sorted(SCALES))
        everything.add_argument("--seed", type=int, default=0)
        everything.add_argument("--output", type=str, default=None)

    # -- sketch service commands ------------------------------------------------

    def add_snapshot_arg(p, required=True):
        p.add_argument("--snapshot", required=required,
                       help="path of the service snapshot file (binary v2)")

    def add_wire_arg(p):
        p.add_argument("--wire", default="auto",
                       choices=("auto", "binary", "ndjson"),
                       help="wire format for --connect: auto upgrades to "
                            "binary frames when the server offers them "
                            "(default), binary requires the upgrade, ndjson "
                            "stays on the debuggable JSON-lines protocol")

    def add_token_arg(p):
        p.add_argument("--token", default=None, metavar="TOKEN",
                       help="API token for --connect against a multi-tenant "
                            "server: a tenant token scopes every request to "
                            "that tenant's namespace, the admin token grants "
                            "the unscoped administrative role")

    def add_connect_arg(p):
        p.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="send the request to a running network server "
                            "instead of restoring --snapshot locally")
        add_token_arg(p)
        add_wire_arg(p)

    ingest = sub.add_parser(
        "ingest", help="ingest data into a service snapshot (creating it if needed)")
    add_snapshot_arg(ingest, required=False)
    add_connect_arg(ingest)
    ingest.add_argument("--name", required=True, help="estimator name")
    ingest.add_argument("--family", default=None,
                        help="estimator family (required when registering a new name)")
    ingest.add_argument("--sizes", default=None,
                        help="domain sizes, e.g. 4096 or 1024x1024 "
                             "(required when registering a new name)")
    ingest.add_argument("--instances", type=int, default=None,
                        help="atomic-sketch instances (default: 256)")
    ingest.add_argument("--seed", type=int, default=None,
                        help="sketch seed (default: 0)")
    ingest.add_argument("--epsilon", type=int, default=None,
                        help="epsilon for the epsilon family")
    ingest.add_argument("--strict", action="store_true",
                        help="strict overlap semantics for the range family")
    ingest.add_argument("--endpoint-policy", default=None,
                        choices=("assume_distinct", "transform", "explicit"))
    ingest.add_argument("--shards", type=int, default=4,
                        help="shard count when creating a new snapshot (default: 4)")
    ingest.add_argument("--side", default="left", help="input side (default: left)")
    ingest.add_argument("--kind", default="insert", choices=("insert", "delete"))
    source = ingest.add_mutually_exclusive_group()
    source.add_argument("--count", type=int, default=None,
                        help="generate this many uniform synthetic boxes")
    source.add_argument("--boxes", default=None,
                        help="JSON file with box rows [lo_1..lo_d, hi_1..hi_d]")
    ingest.add_argument("--data-seed", type=int, default=0,
                        help="seed for synthetic data generation")

    estimate = sub.add_parser("estimate", help="estimate from a service snapshot")
    add_snapshot_arg(estimate, required=False)
    add_connect_arg(estimate)
    estimate.add_argument("--name", required=True, help="estimator name")
    estimate.add_argument("--query", default=None,
                          help="query rectangle lo_1,..,lo_d,hi_1,..,hi_d "
                               "(range family only)")
    estimate.add_argument("--batch-file", default=None,
                          help="JSON-lines file of queries: one "
                               "[lo_1..lo_d, hi_1..hi_d] array (or null for "
                               "query-less families) per line; '-' for stdin")
    estimate.add_argument("--batch-output", default=None,
                          help="where to write the JSON-lines results "
                               "(default: stdout)")
    estimate.add_argument("--explain", action="store_true",
                          help="print the compiled sketch program(s) — word "
                               "products, letter-sum requests with dyadic "
                               "cover sizes, and the reduction plan — "
                               "instead of estimating (offline --snapshot "
                               "path only)")
    estimate.add_argument("--json", action="store_true",
                          help="with --connect: print a structured JSON "
                               "envelope (server address, wire format, "
                               "result fields) instead of the bare result "
                               "object")

    serve = sub.add_parser(
        "serve", help="serve estimates over stdio JSON-lines, or over TCP "
                      "with --listen")
    add_snapshot_arg(serve, required=False)
    serve.add_argument("--shards", type=int, default=4,
                       help="shard count when starting without a snapshot")
    serve.add_argument("--save-on-exit", action="store_true",
                       help="write the snapshot back on quit/EOF (needs --snapshot)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve the newline-delimited JSON protocol over "
                            "TCP (request coalescing, metrics, hot reload) "
                            "instead of the stdio loop; port 0 picks a free "
                            "port")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer batch size: concurrent estimates are "
                            "answered through one batched engine call "
                            "(default: 64; 1 disables coalescing)")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="longest a queued estimate waits for batch "
                            "companions, in milliseconds (default: 2)")
    serve.add_argument("--no-binary-wire", action="store_true",
                       help="with --listen: refuse the binary frame "
                            "handshake and serve NDJSON only (debugging)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission cap on queued+in-flight estimates; "
                            "beyond it requests get fast 'overloaded' errors "
                            "(default: 1024)")
    serve.add_argument("--max-frame-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="with --listen: upper bound on one request or "
                            "response frame, enforced on both the NDJSON "
                            "and binary wire paths (default: 16 MiB)")
    serve.add_argument("--admin-token", default=None, metavar="TOKEN",
                       help="with --listen: enable the authenticated admin "
                            "role; with a tenant registry present, "
                            "unauthenticated connections keep only the "
                            "read-only surface")
    serve.add_argument("--snapshot-on-exit", action="store_true",
                       help="with --listen: on SIGTERM/SIGINT stop accepting, "
                            "drain in-flight requests and flush a final "
                            "snapshot to --snapshot before exiting")
    serve.add_argument("--wal-dir", default=None, metavar="DIR",
                       help="durable serving: recover from this write-ahead "
                            "log directory on start (snapshot + replay tail) "
                            "and log every ingest before applying it")
    serve.add_argument("--wal-sync", default="flush",
                       choices=("none", "flush", "fsync"),
                       help="WAL flush discipline: none (buffered, fastest), "
                            "flush (OS page cache per append — survives "
                            "kill -9, the default), fsync (survives power "
                            "loss)")
    serve.add_argument("--wal-checkpoint-boxes", type=int, default=None,
                       metavar="N",
                       help="auto-checkpoint: snapshot + truncate the WAL "
                            "once N update rows accumulate in the log "
                            "(default: manual checkpoints only)")

    tenant = sub.add_parser(
        "tenant", help="administer the tenant registry of a running server")
    tenant.add_argument("action",
                        choices=("create", "list", "describe", "update",
                                 "disable", "enable", "remove"),
                        help="registry action (all but a self-describe "
                             "require the admin token)")
    tenant.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address of the running server or cluster "
                             "router")
    add_token_arg(tenant)
    add_wire_arg(tenant)
    tenant.add_argument("--tenant", default=None, metavar="ID",
                        help="tenant id the action applies to (optional for "
                             "list, and for describe on a tenant-token "
                             "connection)")
    tenant.add_argument("--tenant-token", default=None, metavar="TOKEN",
                        help="API token to install (create, or rotation via "
                             "update); only its SHA-256 hash is stored")
    tenant.add_argument("--quota", default=None, metavar="JSON",
                        help='quota object, e.g. \'{"ingest_boxes_per_sec": '
                             '50000, "max_estimates_in_flight": 64, '
                             '"share": 4}\' (create/update)')
    tenant.add_argument("--json", action="store_true",
                        help="print one compact machine-readable line "
                             "instead of indented JSON")

    wal = sub.add_parser(
        "wal", help="inspect a write-ahead log directory (segments, durable "
                    "records, torn-tail bytes)")
    wal.add_argument("--dir", required=True, metavar="DIR",
                     help="WAL directory to scan")
    wal.add_argument("--since", type=int, default=0, metavar="SEQNO",
                     help="only count records after this sequence number")
    wal.add_argument("--events", action="store_true",
                     help="also print one JSON line per durable record event")

    # -- cluster commands ---------------------------------------------------------

    cluster = sub.add_parser(
        "cluster", help="run many workers as one logical sketch service")
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cserve = csub.add_parser(
        "serve", help="spawn N local worker processes and a router over them")
    cserve.add_argument("--workers", type=int, default=2,
                        help="worker subprocess count (default: 2)")
    cserve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="router listen address (default: 127.0.0.1:0 — "
                             "a free port, announced on stdout)")
    cserve.add_argument("--snapshot", default=None,
                        help="bootstrap mode: worker 0 loads this snapshot "
                             "and the others become bit-identical read "
                             "replicas of it (omit for N empty shard workers)")
    cserve.add_argument("--slots", type=int, default=64,
                        help="cluster shard slots on the hash ring (default: 64)")
    cserve.add_argument("--max-batch", type=int, default=64,
                        help="per-worker coalescer batch size (default: 64)")
    cserve.add_argument("--max-delay-ms", type=float, default=2.0,
                        help="per-worker coalescer delay in ms (default: 2)")
    cserve.add_argument("--worker-wire", default="auto",
                        choices=("auto", "binary", "ndjson"),
                        help="wire format for router->worker links "
                             "(default: auto — binary when workers offer it)")
    cserve.add_argument("--admin-token", default=None, metavar="TOKEN",
                        help="multi-tenant fleet: the router's admin token; "
                             "spawned workers start with the same token and "
                             "the router authenticates its worker links "
                             "with it")

    croute = csub.add_parser(
        "route", help="route over already-running workers (no spawning)")
    croute.add_argument("--worker", action="append", required=True,
                        metavar="HOST:PORT", dest="workers",
                        help="a running worker's address (repeatable)")
    croute.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="router listen address (default: 127.0.0.1:0)")
    croute.add_argument("--slots", type=int, default=64,
                        help="cluster shard slots on the hash ring (default: 64)")
    croute.add_argument("--worker-wire", default="auto",
                        choices=("auto", "binary", "ndjson"),
                        help="wire format for router->worker links "
                             "(default: auto — binary when workers offer it)")
    croute.add_argument("--admin-token", default=None, metavar="TOKEN",
                        help="multi-tenant fleet: the router's admin token "
                             "(also presented on worker links unless "
                             "--worker-token overrides it)")
    croute.add_argument("--worker-token", default=None, metavar="TOKEN",
                        help="admin token the router presents on its worker "
                             "links (default: --admin-token)")

    cstatus = csub.add_parser(
        "status", help="print a running router's cluster topology as JSON")
    cstatus.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="the router's address")
    add_token_arg(cstatus)
    add_wire_arg(cstatus)
    cstatus.add_argument("--json", action="store_true",
                         help="print the topology as one compact JSON line "
                              "(machine-readable) instead of indented output")
    return parser


def _run_experiments(names: Sequence[str], scale_name: str, seed: int,
                     output: str | None) -> int:
    from repro.experiments.config import get_scale
    from repro.experiments.figures import FIGURES

    scale = get_scale(scale_name)
    chunks: list[str] = []
    for name in names:
        generator = FIGURES[name]
        start = time.perf_counter()
        result = generator(scale, seed=seed)
        elapsed = time.perf_counter() - start
        text = result.to_text() + f"\n(completed in {elapsed:.1f} s)\n"
        print(text)
        chunks.append(text)
    if output:
        with open(output, "a", encoding="utf-8") as handle:
            handle.write("\n".join(chunks))
            handle.write("\n")
    return 0


# -- sketch service helpers ----------------------------------------------------------


def _parse_sizes(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace("x", ",").split(",") if p]
    return tuple(int(p) for p in parts)


def _parse_hostport(text: str) -> tuple[str, int]:
    """``host:port`` (or bare ``:port`` for localhost) as an address pair."""
    host, separator, port = text.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _connect_client(args):
    from repro.client import ServiceClient

    host, port = _parse_hostport(args.connect)
    try:
        return ServiceClient(host, port, wire=getattr(args, "wire", "auto"),
                             token=getattr(args, "token", None))
    except OSError as exc:
        raise ReproError(f"cannot connect to {host}:{port}: {exc}") from exc


def _require_target(args) -> None:
    """One-shot service ops need a running server or a snapshot file."""
    if args.connect is None and args.snapshot is None:
        raise ReproError(
            "pass --connect HOST:PORT to use a running server, or "
            "--snapshot PATH for the offline path"
        )


def _load_or_create_service(path: str | None, shards: int):
    from repro.service import EstimationService

    if path and os.path.exists(path):
        return EstimationService.load(path), True
    return EstimationService(num_shards=shards), False


def _ingest_options(args) -> dict:
    options = {}
    if args.epsilon is not None:
        options["epsilon"] = args.epsilon
    if args.strict:
        options["strict"] = True
    if args.endpoint_policy is not None:
        options["endpoint_policy"] = args.endpoint_policy
    return options


def _check_spec_conflicts(args, spec) -> None:
    """An already-registered name: configuration flags must agree with the
    stored spec rather than being silently ignored."""
    conflicts = []
    if args.family is not None and args.family != spec.family:
        conflicts.append(f"--family {args.family} (registered: {spec.family})")
    if args.sizes is not None and _parse_sizes(args.sizes) != spec.sizes:
        conflicts.append(f"--sizes {args.sizes} "
                         f"(registered: {'x'.join(map(str, spec.sizes))})")
    if args.epsilon is not None and args.epsilon != spec.option("epsilon", None):
        conflicts.append(f"--epsilon {args.epsilon} "
                         f"(registered: {spec.option('epsilon', None)})")
    if args.strict and not spec.option("strict", False):
        conflicts.append("--strict (registered: non-strict)")
    if args.endpoint_policy is not None and \
            args.endpoint_policy != spec.option("endpoint_policy", "transform"):
        conflicts.append(f"--endpoint-policy {args.endpoint_policy} "
                         f"(registered: {spec.option('endpoint_policy', 'transform')})")
    if args.instances is not None and args.instances != spec.num_instances:
        conflicts.append(f"--instances {args.instances} "
                         f"(registered: {spec.num_instances})")
    if args.seed is not None and args.seed != spec.seed:
        conflicts.append(f"--seed {args.seed} (registered: {spec.seed})")
    if conflicts:
        raise ReproError(
            f"estimator {args.name!r} is already registered with a "
            f"different configuration: {'; '.join(conflicts)}"
        )


def _ingest_boxes(args, spec) -> BoxSet:
    """The boxes to ingest: a JSON file of rows, or synthetic data."""
    from repro.core.domain import Domain
    from repro.server.protocol import boxes_from_rows
    from repro.service import synthetic_boxes

    if args.boxes is not None:
        with open(args.boxes, "r", encoding="utf-8") as handle:
            return boxes_from_rows(json.load(handle), spec.dimension)
    count = args.count if args.count is not None else 1000
    degenerate = spec.info.resolve_side(args.side) in spec.info.point_sides
    return synthetic_boxes(Domain(spec.sizes, max_levels=spec.max_levels),
                           count, seed=args.data_seed, degenerate=degenerate)


def _run_ingest_remote(args) -> int:
    """Satellite path: reuse a running server instead of restoring a snapshot."""
    from repro.service import EstimatorSpec

    with _connect_client(args) as client:
        estimators = client.stats()["estimators"]
        created = args.name not in estimators
        if created:
            if args.family is None or args.sizes is None:
                raise ReproError(
                    f"estimator {args.name!r} is not on the server; pass "
                    f"--family and --sizes to register it"
                )
            reply = client.register(
                args.name, family=args.family, sizes=_parse_sizes(args.sizes),
                instances=256 if args.instances is None else args.instances,
                seed=0 if args.seed is None else args.seed,
                **_ingest_options(args))
            spec = EstimatorSpec.from_dict(reply["spec"])
        else:
            spec = EstimatorSpec.from_dict(estimators[args.name])
            _check_spec_conflicts(args, spec)
        boxes = _ingest_boxes(args, spec)
        reply = client.ingest(args.name, boxes, side=args.side, kind=args.kind)
        print(json.dumps({
            "connect": args.connect,
            "created": created,
            "name": args.name,
            "side": args.side,
            "kind": args.kind,
            "boxes": reply["boxes"],
            "pending": reply["pending"],
        }))
    return 0


def _run_ingest(args) -> int:
    from repro.service import EstimatorSpec

    _require_target(args)
    if args.connect is not None:
        return _run_ingest_remote(args)
    service, existed = _load_or_create_service(args.snapshot, args.shards)
    if args.name not in service:
        if args.family is None or args.sizes is None:
            raise ReproError(
                f"estimator {args.name!r} is not in the snapshot; pass --family "
                f"and --sizes to register it"
            )
        spec = EstimatorSpec.create(
            args.family, _parse_sizes(args.sizes),
            256 if args.instances is None else args.instances,
            seed=0 if args.seed is None else args.seed, **_ingest_options(args))
        service.register(args.name, spec)
    else:
        _check_spec_conflicts(args, service.spec(args.name))
    spec = service.spec(args.name)

    boxes = _ingest_boxes(args, spec)
    service.ingest(args.name, boxes, side=args.side, kind=args.kind)
    report = service.flush()
    service.save(args.snapshot)
    print(json.dumps({
        "snapshot": args.snapshot,
        "created": not existed,
        "name": args.name,
        "side": args.side,
        "kind": args.kind,
        "boxes": len(boxes),
        "flushed_batches": report.batches,
        "shards": service.num_shards,
    }))
    return 0


def _read_batch_queries(path: str, dimension: int):
    """Parse a JSON-lines batch file into a query batch.

    Every non-empty line is either a ``[lo_1..lo_d, hi_1..hi_d]`` array
    (queryable families) or ``null`` (query-less families); the two shapes
    cannot be mixed, because the batch goes to a single estimator.  Returns
    a :class:`BoxSet` for rectangle batches and a list of ``None`` for
    query-less ones.
    """
    from repro.server.protocol import boxes_from_rows

    handle = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    rows: list = []
    try:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"batch file line {number}: {exc}") from exc
            rows.append(row)
    finally:
        if handle is not sys.stdin:
            handle.close()
    if all(row is None for row in rows):
        return list(rows)
    if any(row is None for row in rows):
        raise ReproError(
            "batch file mixes null entries with query rectangles; a batch "
            "targets one estimator and its queries are all of one shape"
        )
    return boxes_from_rows(rows, dimension)


@contextmanager
def _jsonl_sink(path: str | None):
    """A JSON-lines output stream: stdout for ``None``/``-``, else a file."""
    out = (sys.stdout if path in (None, "-")
           else open(path, "w", encoding="utf-8"))
    try:
        yield out
    finally:
        if out is not sys.stdout:
            out.close()
        else:
            out.flush()


def _write_batch_results(results, args) -> None:
    """JSON-lines batch output, shared by the offline and remote paths."""
    from repro.server.protocol import estimate_fields

    with _jsonl_sink(args.batch_output) as out:
        for index, result in enumerate(results):
            out.write(json.dumps({"index": index, "name": args.name,
                                  **estimate_fields(result)}) + "\n")


def _run_estimate_batch(service, args) -> int:
    spec = service.spec(args.name)
    queries = _read_batch_queries(args.batch_file, spec.dimension)
    results = service.estimate_batch(args.name, queries)
    _write_batch_results(results, args)
    return 0


def _parse_query_arg(text: str) -> BoxSet:
    from repro.server.protocol import boxes_from_rows

    coords = [int(c) for c in text.split(",") if c]
    if len(coords) % 2:
        raise ReproError("--query needs lo_1,..,lo_d,hi_1,..,hi_d")
    return boxes_from_rows([coords], len(coords) // 2)


def _run_estimate_remote(args) -> int:
    """Satellite path: reuse a running server instead of restoring a snapshot."""
    from repro.server.protocol import estimate_fields
    from repro.service import EstimatorSpec

    with _connect_client(args) as client:
        if args.batch_file is not None:
            if args.query is not None:
                raise ReproError("--query and --batch-file are mutually exclusive")
            estimators = client.stats()["estimators"]
            if args.name not in estimators:
                raise ReproError(f"estimator {args.name!r} is not on the server")
            spec = EstimatorSpec.from_dict(estimators[args.name])
            queries = _read_batch_queries(args.batch_file, spec.dimension)
            results = client.estimate_many(args.name, queries)
            _write_batch_results(results, args)
            return 0
        if args.batch_output is not None:
            raise ReproError("--batch-output requires --batch-file")
        query = _parse_query_arg(args.query) if args.query is not None else None
        result = client.estimate(args.name, query)
        if getattr(args, "json", False):
            # Structured envelope for scripting: where the answer came
            # from alongside the result fields themselves.
            print(json.dumps({
                "op": "estimate",
                "server": f"{client.host}:{client.port}",
                "wire": client.wire_format,
                "name": args.name,
                "query": args.query,
                "result": estimate_fields(result),
            }, sort_keys=True))
        else:
            print(json.dumps({"name": args.name, **estimate_fields(result)}))
    return 0


def _run_explain(service, args) -> int:
    """``estimate --explain``: print the compiled program(s) as JSON lines.

    Shows what the estimate *is* before it runs: one JSON object per
    program with the word-product terms, every letter-sum request (with
    its dyadic cover size) and the median-of-means reduction plan — the
    exact batch the ProgramExecutor would execute.
    """
    from repro.core.program import describe_program
    from repro.service.specs import compile_programs

    spec = service.spec(args.name)
    if args.batch_file is not None:
        if args.query is not None:
            raise ReproError("--query and --batch-file are mutually exclusive")
        queries = _read_batch_queries(args.batch_file, spec.dimension)
    elif spec.info.queryable:
        if args.query is None:
            raise ReproError(
                f"family {spec.family!r} programs compile per query; pass "
                f"--query or --batch-file")
        queries = _parse_query_arg(args.query)
    else:
        if args.query is not None:
            raise ReproError(
                f"family {spec.family!r} does not take a query argument")
        queries = 1
    view = service.merged_view(args.name)
    programs = compile_programs(spec, view, queries)
    with _jsonl_sink(args.batch_output) as out:
        for index, program in enumerate(programs):
            out.write(json.dumps({
                "index": index,
                "name": args.name,
                "family": spec.family,
                "program": describe_program(program),
            }) + "\n")
    return 0


def _run_estimate(args) -> int:
    from repro.server.protocol import estimate_fields
    from repro.service import EstimationService

    _require_target(args)
    if args.connect is not None:
        if args.explain:
            raise ReproError("--explain inspects a local snapshot; it does "
                             "not apply to --connect")
        return _run_estimate_remote(args)
    service = EstimationService.load(args.snapshot)
    if args.explain:
        return _run_explain(service, args)
    if args.batch_file is not None:
        if args.query is not None:
            raise ReproError("--query and --batch-file are mutually exclusive")
        return _run_estimate_batch(service, args)
    if args.batch_output is not None:
        raise ReproError("--batch-output requires --batch-file")
    query = _parse_query_arg(args.query) if args.query is not None else None
    result = service.estimate(args.name, query)
    print(json.dumps({"name": args.name, **estimate_fields(result)}))
    return 0


def service_command_loop(service, in_stream, out_stream, *,
                         snapshot_path: str | None = None,
                         save_on_exit: bool = False) -> int:
    """The stdin ``serve`` loop: one JSON request per line, one reply per line.

    The requests are the network protocol's (:mod:`repro.server.protocol`),
    answered by the same handler table a ``--listen`` server uses, without
    a listener: ``register`` / ``unregister`` / ``ingest`` / ``estimate`` /
    ``flush`` / ``stats`` / ``metrics`` / ``snapshot`` (alias ``save``) /
    ``reload`` / ``wal`` / ``tenant`` / ``ping``, and ``quit`` to end the
    loop.  Failures are replies with ``ok: false`` and an ``error_code``;
    they never end the loop or lose the in-memory sketches.
    """
    import asyncio

    from repro.server import ServerConfig, SketchServer, protocol

    def reply(payload: dict) -> None:
        # The line a TCP client on the NDJSON wire would read.
        out_stream.write(protocol.encode(payload).decode("utf-8"))
        out_stream.flush()

    # max_delay=0: a lone estimate on stdin has no batch companions to wait for.
    server = SketchServer(service, config=ServerConfig(max_delay=0.0),
                          snapshot_path=snapshot_path)
    asyncio.run(server.serve_lines(in_stream, reply))
    if save_on_exit and snapshot_path:
        # A reload may have hot-swapped the service; save the live one.
        server.service.save(snapshot_path)
    return 0


def _run_serve_listen(args, service, *, recovery=None) -> int:
    import asyncio

    from repro.server import ServerConfig, SketchServer, serve

    host, port = _parse_hostport(args.listen)
    config_kwargs = {}
    if getattr(args, "max_frame_bytes", None) is not None:
        config_kwargs["max_line_bytes"] = args.max_frame_bytes
    config = ServerConfig(host=host, port=port, max_batch=args.max_batch,
                          max_delay=args.max_delay_ms / 1000.0,
                          max_queue=args.max_queue,
                          binary_wire=not args.no_binary_wire,
                          admin_token=getattr(args, "admin_token", None),
                          **config_kwargs)
    # With a WAL the snapshot default falls back to the in-directory
    # checkpoint base, so snapshot/reload verbs and inline bootstraps all
    # share one recovery lineage.
    snapshot_path = args.snapshot
    if snapshot_path is None and service.wal is not None:
        snapshot_path = service.wal_checkpoint_path
    server = SketchServer(service, config=config, snapshot_path=snapshot_path)

    def announce(started) -> None:
        banner = {"listening": f"{host}:{started.port}",
                  "estimators": service.names(),
                  "max_batch": args.max_batch,
                  "max_queue": args.max_queue}
        if recovery is not None:
            banner["wal"] = {"dir": args.wal_dir, "sync": args.wal_sync,
                             "recovery": recovery}
        print(json.dumps(banner), flush=True)

    try:
        # Signal handlers make SIGTERM/SIGINT a graceful drain: the server
        # stops accepting, finishes in-flight coalescer buckets, then serve()
        # returns normally so the final snapshot below reflects every
        # acknowledged write.  KeyboardInterrupt stays as a fallback for
        # platforms without loop signal-handler support.
        asyncio.run(serve(server, ready=announce,
                          install_signal_handlers=True))
    except KeyboardInterrupt:
        pass
    finally:
        if (args.save_on_exit or args.snapshot_on_exit) and args.snapshot:
            # A reload may have hot-swapped the service; save the live one.
            server.service.save(args.snapshot)
    return 0


def _run_serve(args) -> int:
    recovery = None
    if args.wal_dir is not None:
        from repro.wal.recovery import default_checkpoint_path, recover_service

        # Durable serving: the snapshot (explicit, or the in-WAL-directory
        # checkpoint base) plus the log tail reconstruct every
        # acknowledged write, torn tail excluded.
        base = args.snapshot or default_checkpoint_path(args.wal_dir)
        service, report = recover_service(
            args.wal_dir, base, sync=args.wal_sync,
            checkpoint_path=base,
            checkpoint_boxes=args.wal_checkpoint_boxes,
            num_shards=args.shards)
        recovery = report.as_dict()
    else:
        service, _ = _load_or_create_service(args.snapshot, args.shards)
    if args.listen is not None:
        return _run_serve_listen(args, service, recovery=recovery)
    return service_command_loop(service, sys.stdin, sys.stdout,
                                snapshot_path=args.snapshot,
                                save_on_exit=args.save_on_exit)


def _run_wal_inspect(args) -> int:
    """The ``wal`` command: a JSON report of a log directory's contents."""
    from repro.wal.framing import decode_payload
    from repro.wal.reader import list_segments, scan_segment

    segments = []
    records = 0
    boxes = 0
    last_seqno = 0
    torn_bytes = 0
    events = []
    for path in list_segments(args.dir):
        scan = scan_segment(path)
        segments.append({"path": path, "records": len(scan.records),
                         "valid_bytes": scan.valid_bytes,
                         "truncated_bytes": scan.truncated_bytes})
        torn_bytes += scan.truncated_bytes
        for seqno, payload in scan.records:
            if seqno <= args.since:
                continue
            event = decode_payload(payload)
            records += 1
            last_seqno = max(last_seqno, seqno)
            if event["type"] == "update":
                boxes += int(len(event["rows"]))
            if args.events:
                summary = {"seqno": seqno, "type": event["type"],
                           "name": event["name"]}
                if event["type"] == "update":
                    summary.update(side=event["side"], kind=event["kind"],
                                   rows=int(len(event["rows"])))
                events.append(summary)
    for line in events:
        print(json.dumps(line))
    print(json.dumps({"dir": args.dir, "since": args.since,
                      "segments": segments, "records": records,
                      "boxes": boxes, "last_seqno": last_seqno,
                      "torn_bytes": torn_bytes}, indent=2))
    return 0


# -- cluster commands ----------------------------------------------------------------


def _serve_router(router, attach, *, workers, mode) -> None:
    """Attach the fleet, then serve the router until signalled, the
    manager's heartbeat running beside it (``close`` stops both)."""
    import asyncio

    from repro.server import serve

    def announce(started) -> None:
        # The stdout banner fleet tooling parses.
        print(json.dumps({"listening": f"{started.config.host}:{started.port}",
                          "mode": mode,
                          "workers": workers,
                          "estimators": started.estimators()}), flush=True)

    async def run() -> None:
        await attach()
        router.manager.start_heartbeat()
        await serve(router, ready=announce, install_signal_handlers=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _run_cluster_serve(args) -> int:
    """Spawn N local workers, wire a router over them, serve until signalled."""
    from repro.cluster import ClusterRouter, RouterConfig
    from repro.cluster.fleet import spawn_worker

    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    host, port = _parse_hostport(args.listen)
    processes = []
    extra_args: tuple[str, ...] = ()
    if args.admin_token:
        # The whole fleet shares one admin token: spawned workers enforce
        # it, and the router both offers it to clients and presents it on
        # its worker links.
        extra_args = ("--admin-token", args.admin_token)
    try:
        for index in range(args.workers):
            snapshot = args.snapshot if index == 0 else None
            processes.append(spawn_worker(snapshot=snapshot,
                                          max_batch=args.max_batch,
                                          max_delay_ms=args.max_delay_ms,
                                          extra_args=extra_args))
        router = ClusterRouter(config=RouterConfig(
            host=host, port=port, num_slots=args.slots,
            worker_wire=args.worker_wire,
            admin_token=args.admin_token,
            worker_token=args.admin_token))

        async def attach() -> None:
            await router.attach("w0", processes[0].host, processes[0].port)
            for index, worker in enumerate(processes[1:], start=1):
                if args.snapshot:
                    # Bootstrap mode: replicas mirror worker 0's snapshot
                    # bit-identically, scaling estimate throughput.
                    await router.bootstrap_replica(f"r{index}", worker.host,
                                                   worker.port, source="w0")
                else:
                    await router.attach(f"w{index}", worker.host, worker.port)

        _serve_router(router, attach,
                      workers=[w.address for w in processes],
                      mode="replicas" if args.snapshot else "shards")
    finally:
        for worker in processes:
            worker.stop()
    return 0


def _run_cluster_route(args) -> int:
    """Route over an externally-managed fleet of running workers."""
    from repro.cluster import ClusterRouter, RouterConfig

    host, port = _parse_hostport(args.listen)
    targets = [_parse_hostport(text) for text in args.workers]
    router = ClusterRouter(config=RouterConfig(
        host=host, port=port, num_slots=args.slots,
        worker_wire=args.worker_wire,
        admin_token=args.admin_token,
        worker_token=args.worker_token or args.admin_token))

    async def attach() -> None:
        for index, (whost, wport) in enumerate(targets):
            await router.attach(f"w{index}", whost, wport)

    _serve_router(router, attach, workers=[f"{h}:{p}" for h, p in targets],
                  mode="shards")
    return 0


def _run_cluster_status(args) -> int:
    with _connect_client(args) as client:
        status = client.cluster_status()
        if getattr(args, "json", False):
            # One compact machine-readable line (for shell pipelines);
            # the human-facing default stays indented.
            print(json.dumps(status, separators=(",", ":"), sort_keys=True))
        else:
            print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _run_tenant(args) -> int:
    fields: dict = {}
    if args.tenant_token is not None:
        fields["token"] = args.tenant_token
    if args.quota is not None:
        try:
            fields["quota"] = json.loads(args.quota)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--quota must be a JSON object: {exc}") from exc
    with _connect_client(args) as client:
        reply = client.tenant(args.action, args.tenant, **fields)
    body = {key: value for key, value in reply.items()
            if key not in ("ok", "op")}
    if args.json:
        print(json.dumps(body, separators=(",", ":"), sort_keys=True))
    else:
        print(json.dumps(body, indent=2, sort_keys=True))
    return 0


def _run_cluster(args) -> int:
    if args.cluster_command == "serve":
        return _run_cluster_serve(args)
    if args.cluster_command == "route":
        return _run_cluster_route(args)
    return _run_cluster_status(args)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``repro-spatial`` console script."""
    arguments = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no options of its own, so the first
    # non-option argument is the verb.
    command = next((arg for arg in arguments if not arg.startswith("-")), None)
    parser = _build_parser(experiments=command in EXPERIMENT_COMMANDS)
    args = parser.parse_args(arguments)

    if args.command == "list":
        from repro.experiments.config import SCALES
        from repro.experiments.figures import FIGURES

        print("experiments:")
        for name in sorted(FIGURES):
            doc = (FIGURES[name].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {name:28s} {summary}")
        print("\nscales:")
        for name, scale in sorted(SCALES.items()):
            print(f"  {name:8s} runs={scale.runs} synthetic_sizes={scale.synthetic_sizes}")
        return 0

    if args.command == "run":
        return _run_experiments(args.experiments, args.scale, args.seed, args.output)

    if args.command == "all":
        from repro.experiments.figures import FIGURES

        return _run_experiments(sorted(FIGURES), args.scale, args.seed, args.output)

    try:
        if args.command == "ingest":
            return _run_ingest(args)
        if args.command == "estimate":
            return _run_estimate(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "tenant":
            return _run_tenant(args)
        if args.command == "wal":
            return _run_wal_inspect(args)
        if args.command == "cluster":
            return _run_cluster(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
