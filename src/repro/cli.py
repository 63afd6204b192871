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
import signal
import socket
import sys
import time
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - the CLI imports its modules lazily
    from repro.geometry.boxset import BoxSet

# -- parsers: one per verb, built only when that verb runs ---------------------------


def _args_run(parser, *, names: bool = True) -> None:
    from repro.experiments.config import SCALES
    from repro.experiments.figures import FIGURES

    if names:
        parser.add_argument("experiments", nargs="+", choices=sorted(FIGURES),
                            help="experiment identifiers (e.g. figure5)")
    parser.add_argument("--scale", default="laptop", choices=sorted(SCALES),
                        help="experiment scale (default: laptop)")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--output", type=str, default=None,
                        help="append the result tables to this file")


def _flags(op: str):
    """``(field, leaf, flag)`` for every field of ``op`` the op table
    (:data:`repro.server.protocol.OPS`) exposes on the command line: the
    leaf is the field itself, or one documented member of an object field."""
    from repro.server.protocol import OPS

    for field in OPS[op].fields:
        for leaf in field.members or (field,):
            if leaf.flag:
                yield field, leaf, leaf.flag.split()[0]


def _add_fields(parser, op: str, *, skip=(), optional: bool = False) -> None:
    """The flags of ``op``, read off the op table.  ``optional``: the verb
    sends this op only when it has to, so no flag is required and an unset
    one is ``None`` (for ``register``: "whatever is registered")."""
    for _, leaf, flag in _flags(op):
        if leaf.name in skip:
            continue
        if not flag.startswith("-"):
            parser.add_argument(flag, choices=leaf.choices, help=leaf.help)
        elif leaf.kind == "boolean":
            parser.add_argument(flag, action="store_true", help=leaf.help)
        else:
            parser.add_argument(
                flag, default=None if optional else leaf.default,
                required=leaf.required and not optional,
                type=int if leaf.kind == "integer" else None,
                choices=leaf.choices or None, help=leaf.help,
                metavar=leaf.flag.partition(" ")[2] or None)


def _given(args, op: str) -> dict:
    """The fields of ``op`` set on the command line, in their wire form."""
    fields: dict = {}
    for field, leaf, flag in _flags(op):
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is None or value is False:
            continue
        try:
            if leaf.kind == "integers":
                value = [int(part) for part in
                         value.replace("x", ",").split(",") if part]
            elif leaf.kind == "object":
                value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{flag} must be a JSON object: {exc}") from exc
        except ValueError as exc:
            raise ReproError(f"{flag} must be integers separated by ',' "
                             f"(or 'x'): {exc}") from exc
        if leaf is field:
            fields[field.name] = value
        else:
            fields.setdefault(field.name, {})[leaf.name] = value
    return fields


def _add_snapshot(parser) -> None:
    parser.add_argument("--snapshot", required=False,
                        help="path of the service snapshot file (binary v2)")


def _add_connect(parser, help_text: str, *, required: bool = False) -> None:
    parser.add_argument("--connect", default=None, required=required,
                        metavar="HOST:PORT", help=help_text)
    _add_fields(parser, "auth")
    parser.add_argument("--wire", default="binary",
                        choices=("binary", "ndjson"),
                        help="wire format for --connect: binary frames "
                             "(default) or the debuggable JSON-lines protocol")


_CONNECT_OR_SNAPSHOT = ("send the request to a running network server "
                        "instead of restoring --snapshot locally")


def _args_ingest(parser) -> None:
    _add_snapshot(parser)
    _add_connect(parser, _CONNECT_OR_SNAPSHOT)
    _add_fields(parser, "ingest")
    _add_fields(parser, "register", skip=("name",), optional=True)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--count", type=int, default=None,
                        help="generate this many uniform synthetic boxes")
    source.add_argument("--boxes", default=None,
                        help="JSON file with box rows [lo_1..lo_d, hi_1..hi_d]")
    parser.add_argument("--data-seed", type=int, default=0,
                        help="seed for synthetic data generation")


def _args_estimate(parser) -> None:
    _add_snapshot(parser)
    _add_connect(parser, _CONNECT_OR_SNAPSHOT)
    _add_fields(parser, "estimate")
    parser.add_argument("--batch-file", default=None,
                        help="JSON-lines file of queries: one "
                             "[lo_1..lo_d, hi_1..hi_d] array (or null for "
                             "query-less families) per line; '-' for stdin")
    parser.add_argument("--batch-output", default=None,
                        help="where to write the JSON-lines results "
                             "(default: stdout)")
    parser.add_argument("--explain", action="store_true",
                        help="print the compiled sketch program(s) — word "
                             "products, letter-sum requests with dyadic "
                             "cover sizes, and the reduction plan — "
                             "instead of estimating (offline --snapshot "
                             "path only)")
    parser.add_argument("--json", action="store_true",
                        help="with --connect: print a structured JSON "
                             "envelope (server address, wire format, "
                             "result fields) instead of the bare result "
                             "object")


def _args_serve(serve) -> None:
    _add_snapshot(serve)
    serve.add_argument("--shards", type=int, default=4,
                       help="shard count, with or without --snapshot (default: 4)")
    serve.add_argument("--save-on-exit", action="store_true",
                       help="write the snapshot back to --snapshot on exit: "
                            "after quit/EOF on stdin, or with --listen after "
                            "SIGTERM/SIGINT has stopped accepting and "
                            "drained in-flight requests")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve the protocol over TCP, NDJSON lines or "
                            "binary frames (request coalescing, metrics, hot "
                            "reload) instead of the stdio loop; port 0 picks "
                            "a free port")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer batch size: concurrent estimates are "
                            "answered through one batched engine call "
                            "(default: 64; 1 disables coalescing)")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="longest a queued estimate waits for batch "
                            "companions, in milliseconds (default: 2)")
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


def _args_tenant(parser) -> None:
    _add_connect(parser, "address of the running server or cluster router",
                 required=True)
    _add_fields(parser, "tenant")
    parser.add_argument("--json", action="store_true",
                        help="print one compact machine-readable line "
                             "instead of indented JSON")


def _args_wal(wal) -> None:
    wal.add_argument("--dir", required=True, metavar="DIR",
                     help="WAL directory to scan")
    wal.add_argument("--since", type=int, default=0, metavar="SEQNO",
                     help="only count records after this sequence number")
    wal.add_argument("--events", action="store_true",
                     help="also print one JSON line per durable record event")


def _args_cluster_serve(cserve) -> None:
    cserve.add_argument("--workers", type=int, default=2,
                        help="worker subprocess count (default: 2)")
    cserve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="router listen address (default: 127.0.0.1:0 — "
                             "a free port, announced on stdout)")
    cserve.add_argument("--snapshot", default=None,
                        help="bootstrap mode: worker 0 loads this snapshot "
                             "and the others become bit-identical read "
                             "replicas of it (omit for N empty shard workers)")
    cserve.add_argument("--admin-token", default=None, metavar="TOKEN",
                        help="multi-tenant fleet: the router's admin token; "
                             "spawned workers start with the same token and "
                             "the router authenticates its worker links "
                             "with it")


def _args_cluster_route(croute) -> None:
    croute.add_argument("--worker", action="append", required=True,
                        metavar="HOST:PORT", dest="workers",
                        help="a running worker's address (repeatable)")
    croute.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="router listen address (default: 127.0.0.1:0)")
    croute.add_argument("--admin-token", default=None, metavar="TOKEN",
                        help="multi-tenant fleet: the router's admin token "
                             "(also presented on worker links unless "
                             "--worker-token overrides it)")
    croute.add_argument("--worker-token", default=None, metavar="TOKEN",
                        help="admin token the router presents on its worker "
                             "links (default: --admin-token)")


def _args_cluster_status(parser) -> None:
    _add_connect(parser, "the router's address", required=True)
    parser.add_argument("--json", action="store_true",
                        help="print the topology as one compact JSON line "
                             "(machine-readable) instead of indented output")


# -- experiments ---------------------------------------------------------------------


def _run_list(args) -> int:
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


def _run_experiments(args) -> int:
    """``run`` (the named experiments) and ``all`` (every one of them)."""
    from repro.experiments.config import get_scale
    from repro.experiments.figures import FIGURES

    scale = get_scale(args.scale)
    chunks: list[str] = []
    for name in getattr(args, "experiments", None) or sorted(FIGURES):
        generator = FIGURES[name]
        start = time.perf_counter()
        result = generator(scale, seed=args.seed)
        elapsed = time.perf_counter() - start
        text = result.to_text() + f"\n(completed in {elapsed:.1f} s)\n"
        print(text)
        chunks.append(text)
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            handle.write("\n".join(chunks))
            handle.write("\n")
    return 0


# -- sketch service helpers ----------------------------------------------------------


def _parse_hostport(text: str) -> tuple[str, int]:
    """``host:port`` (or bare ``:port`` for localhost) as an address pair."""
    host, separator, port = text.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _load_service(path: str | None, *, create: bool, shards: int = 4):
    """The service in a snapshot file, in ``shards`` shards; with
    ``create``, a fresh empty one when there is no such file yet."""
    from repro.service import EstimationService

    if not create or (path and os.path.exists(path)):
        return EstimationService.load(path, num_shards=shards)
    return EstimationService(num_shards=shards)


def _stdio_front(service, snapshot_path: str | None):
    """The listener-less front of stdin ``serve`` and the ``--snapshot`` verbs."""
    from repro.server import ServerConfig, SketchServer

    # max_delay=0: a lone estimate has no batch companions to wait for.
    return SketchServer(service, config=ServerConfig(max_delay=0.0),
                        snapshot_path=snapshot_path)


def _require_target(args) -> None:
    """One-shot service ops need a running server or a snapshot file."""
    if args.connect is None and args.snapshot is None:
        raise ReproError(
            "pass --connect HOST:PORT to use a running server, or "
            "--snapshot PATH for the offline path")


def _target(args, *, create: bool = False):
    """Something that answers requests, as a context manager: a
    :class:`~repro.client.ServiceClient` for ``--connect``, else the
    in-process front stdin ``serve`` uses, over the ``--snapshot`` service
    (with ``create``, a new one when the file does not exist)."""
    from repro.client import InProcessClient, ServiceClient

    if args.connect is None:
        _require_target(args)
        return InProcessClient(_stdio_front(
            _load_service(args.snapshot, create=create), args.snapshot))
    host, port = _parse_hostport(args.connect)
    return ServiceClient(host, port, wire=args.wire, token=args.token)


def _print_json(body, *, compact: bool) -> None:
    """One compact machine-readable line (for shell pipelines), or the
    human-facing indented default."""
    if compact:
        print(json.dumps(body, separators=(",", ":"), sort_keys=True))
    else:
        print(json.dumps(body, indent=2, sort_keys=True))


def _check_spec_conflicts(asked: dict, spec) -> None:
    """An already-registered name: configuration flags must agree with the
    stored spec rather than being silently ignored."""
    registered = {**spec.to_dict(), "instances": spec.num_instances,
                  "name": asked["name"]}
    conflicts = []
    for field, leaf, flag in _flags("register"):
        if leaf is field:
            given, have = asked.get(field.name), registered[field.name]
        else:
            given = asked.get(field.name, {}).get(leaf.name)
            have = spec.option(leaf.name, leaf.default)
        if given is not None and given != have:
            conflicts.append(f"{flag} {given} (registered: {have})")
    if conflicts:
        raise ReproError(
            f"estimator {asked['name']!r} is already registered with a "
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
    side = spec.info.estimator.resolve_side(spec.info.resolve_side(args.side))
    return synthetic_boxes(Domain(spec.sizes, max_levels=spec.max_levels),
                           count, seed=args.data_seed, degenerate=side.points)


def _run_ingest(args) -> int:
    from repro.server import protocol
    from repro.service import EstimatorSpec

    asked = _given(args, "register")
    existed = args.snapshot is not None and os.path.exists(args.snapshot)
    with _target(args, create=True) as client:
        stats = client.stats()
        created = args.name not in stats["estimators"]
        if created:
            if "family" not in asked or "sizes" not in asked:
                where = "on the server" if args.connect else "in the snapshot"
                raise ReproError(
                    f"estimator {args.name!r} is not {where}; pass --family "
                    f"and --sizes to register it")
            reply = client.request(protocol.build("register", **asked))
            spec = EstimatorSpec.from_dict(reply["spec"])
        else:
            spec = EstimatorSpec.from_dict(stats["estimators"][args.name])
            _check_spec_conflicts(asked, spec)
        boxes = _ingest_boxes(args, spec)
        reply = client.ingest(args.name, boxes, side=args.side, kind=args.kind)
        record = {"name": args.name, "side": args.side, "kind": args.kind,
                  "boxes": reply["boxes"]}
        if args.connect is not None:
            print(json.dumps({"connect": args.connect, "created": created,
                              **record, "pending": reply["pending"]}))
        else:
            # The offline path has no server to keep the sketches: apply
            # the batch and write the snapshot back.
            flushed = client.flush()
            client.snapshot(args.snapshot)
            print(json.dumps({"snapshot": args.snapshot,
                              "created": not existed, **record,
                              "flushed_batches": flushed["batches"],
                              "shards": stats["num_shards"]}))
    return 0


def _read_batch_queries(path: str) -> list:
    """Parse a JSON-lines batch file into a query batch.

    Every non-empty line is either a ``[lo_1..lo_d, hi_1..hi_d]`` array
    (queryable families) or ``null`` (query-less families); the two shapes
    cannot be mixed, because the batch goes to a single estimator.  Returns
    the rows, in file order.
    """
    handle = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    rows: list = []
    try:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(f"batch file line {number}: {exc}") from exc
    finally:
        if handle is not sys.stdin:
            handle.close()
    if len({row is None for row in rows}) > 1:
        raise ReproError(
            "batch file mixes null entries with query rectangles; a batch "
            "targets one estimator and its queries are all of one shape"
        )
    return rows


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


def _run_explain(service, args) -> int:
    """``estimate --explain``: print the compiled program as a JSON line.

    Shows what the estimates *are* before they run: the name's one
    program for the whole request, with the word-product terms, every
    query's letter-sum requests (with their dyadic cover sizes) and the
    reduction — group plan, and a level-split range program's control
    column — what the ProgramExecutor would run.
    """
    from repro.core.program import describe_program
    from repro.server.protocol import query_box
    from repro.service.specs import compile_programs

    spec = service.spec(args.name)
    if args.batch_file is not None:
        queries = [query_box(row) for row in _read_batch_queries(args.batch_file)]
    elif spec.info.queryable and args.query is None:
        raise ReproError(
            f"family {spec.family!r} programs compile from queries; pass "
            f"--query or --batch-file")
    else:
        queries = [query_box(_given(args, "estimate").get("query"))]
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

    if args.batch_file is not None and args.query is not None:
        raise ReproError("--query and --batch-file are mutually exclusive")
    if args.explain:
        if args.connect is not None:
            raise ReproError("--explain inspects a local snapshot; it does "
                             "not apply to --connect")
        _require_target(args)
        return _run_explain(_load_service(args.snapshot, create=False), args)
    with _target(args) as client:
        if args.batch_file is not None:
            _write_batch_results(client.estimate_many(
                args.name, _read_batch_queries(args.batch_file)), args)
            return 0
        if args.batch_output is not None:
            raise ReproError("--batch-output requires --batch-file")
        result = client.estimate(args.name, _given(args, "estimate").get("query"))
        if args.json and args.connect is not None:
            # Structured envelope for scripting: where the answer came
            # from alongside the result fields themselves.
            print(json.dumps({
                "op": "estimate",
                "server": f"{client.host}:{client.port}",
                "wire": client.wire,
                "name": args.name,
                "query": args.query,
                "result": estimate_fields(result),
            }, sort_keys=True))
        else:
            print(json.dumps({"name": args.name, **estimate_fields(result)}))
    return 0


def service_command_loop(service, in_stream, out_stream, *,
                         snapshot_path: str | None = None,
                         save_on_exit: bool = False) -> int:
    """The stdin ``serve`` loop: one JSON request per line, one reply per line.

    The requests are the network protocol's (:mod:`repro.server.protocol`),
    answered by the same handler table a ``--listen`` server uses, without
    a listener: ``register`` / ``unregister`` / ``ingest`` / ``estimate`` /
    ``flush`` / ``stats`` / ``metrics`` / ``snapshot`` /
    ``reload`` / ``tenant`` / ``ping``, and ``quit`` to end the
    loop.  Failures are replies with ``ok: false`` and an ``error_code``;
    they never end the loop or lose the in-memory sketches.  Each request
    goes through the :class:`~repro.client.InProcessClient` the
    ``--snapshot`` verbs use, one at a time.
    """
    from repro.client import InProcessClient
    from repro.server import protocol

    def reply(payload: dict) -> None:
        # The line a TCP client on the NDJSON wire would read.
        out_stream.write(protocol.encode(payload).decode("utf-8"))
        out_stream.flush()

    client = InProcessClient(_stdio_front(service, snapshot_path))
    try:
        for line in in_stream:
            if not line.strip():
                continue
            try:
                request = protocol.decode(line)
            except ReproError as exc:
                reply(protocol.error_payload_for(exc))
                continue
            if request.get("op") == "quit":
                reply(protocol.ok_payload("quit", request))
                break
            reply(client.request_many([request])[0])
    finally:
        client.close()
    if save_on_exit and snapshot_path:
        # A reload may have hot-swapped the service; save the live one.
        client.front.service.save(snapshot_path)
    return 0


def listening_socket(host: str, port: int) -> socket.socket:
    """A TCP socket listening on ``host:port`` (port 0 picks a free one; a
    host with several addresses binds the first ``getaddrinfo`` returns).
    It comes from ``getaddrinfo`` so its protocol is ``IPPROTO_TCP``: only
    then does asyncio set ``TCP_NODELAY`` on accepted connections, without
    which each pipelined window stalls on delayed ACK."""
    family, kind, proto, _, address = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
        sock.listen(100)
    except BaseException:
        sock.close()
        raise
    return sock


def _announce(listen: str, **fields) -> socket.socket:
    """Bind ``listen`` and print the stdout banner fleet tooling parses —
    the bound ``listening`` address and ``fields`` as one JSON line —
    before the serving stack loads, so a fleet loads side by side (what
    connects meanwhile waits in the backlog).  From here SIGTERM, like
    SIGINT, raises ``KeyboardInterrupt``: a process stopped while it loads
    ends without serving and without a traceback."""
    host, port = _parse_hostport(listen)
    try:
        sock = listening_socket(host, port)
    except OSError as exc:
        raise ReproError(f"cannot listen on {listen}: {exc}") from exc
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(json.dumps({"listening": f"{host}:{sock.getsockname()[1]}",
                      **fields}), flush=True)
    return sock


def _serve_until_signalled(front, sock, *, before=None) -> None:
    """Run ``front`` on the listening ``sock`` (after the ``before``
    coroutine).  Signal handlers make SIGTERM/SIGINT a graceful drain: the
    front stops accepting, finishes in-flight work, and this returns
    normally; KeyboardInterrupt stays as a fallback for platforms without
    loop signal-handler support."""
    import asyncio

    from repro.server import serve

    async def run() -> None:
        if before is not None:
            await before()
        await serve(front, sock)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _open_service(args):
    """The service ``serve`` answers from: with ``--wal-dir``, the log's
    recovery base (``--snapshot``, else the in-directory checkpoint) plus
    the tail — every acknowledged write, torn tail excluded; else
    ``--snapshot``'s."""
    if args.wal_dir is None:
        return _load_service(args.snapshot, create=True, shards=args.shards)
    from repro.wal.recovery import recover_service

    return recover_service(
        args.wal_dir, args.snapshot, sync=args.wal_sync,
        checkpoint_boxes=args.wal_checkpoint_boxes, num_shards=args.shards)[0]


def _run_serve_listen(args) -> int:
    fields: dict = {"max_batch": args.max_batch, "max_queue": args.max_queue}
    if args.wal_dir is not None:
        os.makedirs(args.wal_dir, exist_ok=True)
        fields["wal"] = {"dir": args.wal_dir, "sync": args.wal_sync}
    sock = _announce(args.listen, **fields)
    try:
        from repro.server import ServerConfig, SketchServer

        service = _open_service(args)
        config = ServerConfig(
            max_batch=args.max_batch, max_delay=args.max_delay_ms / 1000.0,
            max_queue=args.max_queue, admin_token=args.admin_token,
            max_line_bytes=args.max_frame_bytes or ServerConfig.max_line_bytes)
        server = SketchServer(service, config=config,
                              snapshot_path=args.snapshot)
    except KeyboardInterrupt:
        return 0  # stopped while loading: nothing served, nothing to save
    try:
        _serve_until_signalled(server, sock)
    finally:
        if args.save_on_exit and args.snapshot:
            # The drain is over, so this reflects every acknowledged write;
            # a reload may have hot-swapped the service — save the live one.
            server.service.save(args.snapshot)
    return 0


def _run_serve(args) -> int:
    if args.listen is not None:
        return _run_serve_listen(args)
    return service_command_loop(_open_service(args), sys.stdin, sys.stdout,
                                snapshot_path=args.snapshot,
                                save_on_exit=args.save_on_exit)


def _run_wal_inspect(args) -> int:
    """The ``wal`` command: a JSON report of a log directory's contents."""
    from repro.wal.framing import decode_payload
    from repro.wal.reader import read_wal

    records, scans = read_wal(args.dir, since=args.since)
    boxes = 0
    events = []
    for seqno, payload in records:
        event = decode_payload(payload)
        rows = int(len(event["rows"])) if event["type"] == "update" else None
        boxes += rows or 0
        if args.events:
            summary = {"seqno": seqno, "type": event["type"],
                       "name": event["name"]}
            if rows is not None:
                summary.update(side=event["side"], kind=event["kind"], rows=rows)
            events.append(summary)
    for line in events:
        print(json.dumps(line))
    segments = [{"path": scan.path, "records": len(scan.records),
                 "valid_bytes": scan.valid_bytes,
                 "truncated_bytes": scan.truncated_bytes} for scan in scans]
    print(json.dumps({"dir": args.dir, "since": args.since,
                      "segments": segments, "records": len(records),
                      "boxes": boxes,
                      "last_seqno": records[-1][0] if records else 0,
                      "torn_bytes": sum(scan.truncated_bytes for scan in scans)},
                     indent=2))
    return 0


# -- cluster commands ----------------------------------------------------------------


def _serve_router(args, targets, *, worker_token, replicas=False) -> None:
    """Route over the workers at ``targets`` until signalled, the manager's
    heartbeat running beside the router (``close`` stops both).  With
    ``replicas`` the workers after the first bootstrap from worker 0's
    snapshot and mirror it bit-identically, scaling estimate throughput."""
    sock = _announce(args.listen, mode="replicas" if replicas else "shards",
                     workers=[f"{h}:{p}" for h, p in targets])
    try:
        from repro.cluster import ClusterRouter, RouterConfig

        router = ClusterRouter(config=RouterConfig(
            admin_token=args.admin_token, worker_token=worker_token))
    except KeyboardInterrupt:
        return

    async def attach() -> None:
        for index, (whost, wport) in enumerate(targets):
            if replicas and index:
                await router.bootstrap_replica(f"r{index}", whost, wport,
                                               source="w0")
            else:
                await router.attach(f"w{index}", whost, wport)
        router.manager.start_heartbeat()

    _serve_until_signalled(router, sock, before=attach)


def _run_cluster_serve(args) -> int:
    """Spawn N local workers, wire a router over them, serve until signalled."""
    from repro.cluster.fleet import spawn_workers

    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    # The whole fleet shares one admin token: spawned workers enforce it,
    # and the router both offers it to clients and presents it on its
    # worker links.
    extra_args = ("--admin-token", args.admin_token) if args.admin_token else ()
    processes = spawn_workers([
        dict(snapshot=args.snapshot if index == 0 else None,
             extra_args=extra_args) for index in range(args.workers)])
    try:
        _serve_router(args, [(w.host, w.port) for w in processes],
                      worker_token=args.admin_token,
                      replicas=bool(args.snapshot))
    finally:
        for worker in processes:
            worker.stop()
    return 0


def _run_cluster_route(args) -> int:
    """Route over an externally-managed fleet of running workers."""
    _serve_router(args, [_parse_hostport(text) for text in args.workers],
                  worker_token=args.worker_token or args.admin_token)
    return 0


def _run_cluster_status(args) -> int:
    with _target(args) as client:
        _print_json(client.cluster_status(), compact=args.json)
    return 0


def _run_tenant(args) -> int:
    from repro.server import protocol

    request = protocol.build("tenant", **_given(args, "tenant"))
    with _target(args) as client:
        reply = client.request(request)
    _print_json({key: value for key, value in reply.items()
                 if key not in ("ok", "op")}, compact=args.json)
    return 0


#: verb -> (help line, parser arguments, runner).  Only the invoked verb's
#: parser is built (and only it imports what its flags need).
VERBS = {
    "list": ("list the available experiments and scales", None, _run_list),
    "run": ("run one or more experiments", _args_run, _run_experiments),
    "all": ("run every experiment", partial(_args_run, names=False),
            _run_experiments),
    "ingest": ("ingest data into a service snapshot (creating it if needed)",
               _args_ingest, _run_ingest),
    "estimate": ("estimate from a service snapshot", _args_estimate,
                 _run_estimate),
    "serve": ("serve estimates over stdio JSON-lines, or over TCP with "
              "--listen", _args_serve, _run_serve),
    "tenant": ("administer the tenant registry of a running server",
               _args_tenant, _run_tenant),
    "wal": ("inspect a write-ahead log directory (segments, durable "
            "records, torn-tail bytes)", _args_wal, _run_wal_inspect),
    "cluster serve": ("spawn N local worker processes and a router over them",
                      _args_cluster_serve, _run_cluster_serve),
    "cluster route": ("route over already-running workers (no spawning)",
                      _args_cluster_route, _run_cluster_route),
    "cluster status": ("print a running router's cluster topology as JSON",
                       _args_cluster_status, _run_cluster_status),
}
GROUPS = {"cluster": "run many workers as one logical sketch service"}


def _overview() -> argparse.ArgumentParser:
    """The parser of every verb's name and help line, none of their flags:
    it answers ``--help`` and words the error for a missing or unknown verb."""
    parser = argparse.ArgumentParser(
        prog="repro-spatial",
        description="Reproduce the experiments of 'Approximation Techniques for Spatial Data'",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for verb, (help_line, _, _) in VERBS.items():
        group, _, leaf = verb.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True)
        groups[group].add_parser(leaf, help=help_line)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``repro-spatial`` console script."""
    arguments = sys.argv[1:] if argv is None else list(argv)
    # No parser takes options before the verb, so the verb is the first one
    # or two arguments.
    verb = next((text for text in (" ".join(arguments[:2]), *arguments[:1])
                 if text in VERBS), None)
    if verb is None:
        _overview().parse_args(arguments)  # prints help or the error; exits
        return 2
    _, add_arguments, run = VERBS[verb]
    parser = argparse.ArgumentParser(prog=f"repro-spatial {verb}")
    if add_arguments is not None:
        add_arguments(parser)
    args = parser.parse_args(arguments[len(verb.split()):])
    try:
        return run(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
