"""The op table is the contract: client, fronts, CLI and README agree with it.

:data:`repro.server.protocol.OPS` declares the request format once.  These
tests pin every reader of that table to it: payloads the client builds read
back with defaults applied, both fronts register exactly the ops the table
says they serve, a router forwards nothing the table does not declare, the
``--connect`` verbs take exactly the flags the table exposes, and the
README's generated blocks are the table's.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.client import RequestVerbs, ServiceClient
from repro.cluster import ClusterRouter, RouterConfig
from repro.cluster.connection import WorkerLink
from repro.errors import ProtocolError, ServiceError
from repro.server import ServerConfig, SketchServer, ThreadedServer, protocol
from repro.server.protocol import KINDS, OPS
from repro.service import EstimationService

from tests.routing import RouterThread

README = Path(__file__).resolve().parent.parent / "README.md"

#: One well-formed value per field kind.
SAMPLES = {"string": "text", "integer": 7, "boolean": True,
           "object": {"share": 2}, "integers": [4, 4], "rows": [[0, 0, 1, 1]],
           "bytes": "AAEC"}
#: Fields whose values the reader's ``derive`` step also interprets.
SPECIFIC = {"family": "range", "format": "binary", "options": {"strict": True}}


def _sample(field):
    if field.name in SPECIFIC:
        return SPECIFIC[field.name]
    return field.choices[0] if field.choices else SAMPLES[field.kind]


def _leaves(op):
    for field in OPS[op].fields:
        for leaf in field.members or (field,):
            yield field, leaf


# -- builder and reader -----------------------------------------------------------


def test_ops_iterate_as_names_and_cluster_ops_are_the_router_only_ones():
    assert list(OPS)[:2] == ["auth", "register"]
    assert "estimate" in OPS and "save" not in OPS
    assert [name for name, op in OPS.items() if "server" not in op.fronts] \
        == ["cluster_status"]
    for op in OPS.values():
        assert set(op.fronts) <= {"server", "router"} and op.fronts
        assert op.access in ("open", "tenant", "admin")
        assert all(field.kind in KINDS and field.help for field in op.fields)


@pytest.mark.parametrize("op", list(OPS))
def test_every_descriptor_round_trips_with_defaults(op):
    required = {f.name: _sample(f) for f in OPS[op].fields if f.required}
    bare = protocol.read(op, protocol.build(op, **required))
    for field in OPS[op].fields:
        assert bare[field.name] == required.get(field.name, field.default)
    full = {f.name: _sample(f) for f in OPS[op].fields}
    built = protocol.build(op, id=9, **full)
    assert built["op"] == op and set(built) == {"op", "id", *full}
    read = protocol.read(op, built)
    assert {name: read[name] for name in full} == full and read["id"] == 9
    # Unset fields never reach the wire; undeclared ones never leave.
    assert protocol.build(op, **dict.fromkeys(full)) == {"op": op}
    with pytest.raises(ProtocolError, match="no field"):
        protocol.build(op, nonsense=1)


def test_reader_names_the_op_and_the_field():
    with pytest.raises(ServiceError, match="register: missing field 'name'"):
        protocol.read("register", {"family": "range", "sizes": [4]})
    with pytest.raises(ServiceError, match="estimate: field 'name' must be "
                                           "string, got list"):
        protocol.read("estimate", {"name": ["a"]})
    with pytest.raises(ServiceError, match="ingest: field 'kind' must be one"):
        protocol.read("ingest", {"name": "a", "boxes": [], "kind": "upsert"})
    # JSON true is not an integer; a flag may still be sent as 0 / 1.
    with pytest.raises(ServiceError, match="register: field 'instances' must "
                                           "be integer, got bool"):
        protocol.read("register", {"name": "a", "family": "range",
                                   "sizes": [4], "instances": True})
    assert protocol.read("estimate", {"name": "a", "partial": 1})["partial"]
    # null is absent: the default applies.
    assert protocol.read("ingest", {"name": "a", "boxes": [],
                                    "side": None})["side"] == "left"
    tensor = np.zeros((2, 4), dtype=np.int64)
    assert protocol.read("ingest", {"name": "a", "boxes": tensor}
                         )["boxes"] is tensor


def test_acting_for_travels_as_the_link_fields():
    forwarded = protocol.build("flush", acting_for="acme")
    assert forwarded == {"op": "flush", "tenant": "acme", "scoped": True}
    assert protocol.build("flush") == {"op": "flush"}


class _Recorder(ServiceClient):
    """Every public verb of the client, with the payloads it would send."""

    tensors = False

    def __init__(self):  # no connection: request() records
        self.sent = []

    def request(self, payload):
        self.sent.append(dict(payload))
        return {"ok": True, "text": "", "estimate": 0.0, "selectivity": 0.0,
                "left_count": 0, "right_count": 0}

    def request_many(self, payloads):
        return [self.request(payload) for payload in payloads]


def test_every_client_verb_builds_a_payload_the_reader_accepts():
    client = _Recorder()
    client.ping()
    client.auth("secret")
    client.tenant("create", tenant="acme", token="t", quota={"share": 2})
    client.register("rq", family="range", sizes=(64, 64), instances=8,
                    seed=1, strict=True)
    client.unregister("rq")
    client.ingest("rq", [[0, 0, 3, 3]], side="data", kind="delete")
    client.estimate("rq", [0, 0, 9, 9])
    client.estimate_many("join", 2)
    client.flush(), client.stats(), client.metrics()
    client.snapshot("a.snap"), client.reload("a.snap")
    client.checkpoint()
    client.cluster_status(), client.request(protocol.build("quit"))
    verbs = {"auth", "quit"} | {  # the two a connection adds
        name for name in vars(RequestVerbs)
        if not name.startswith("_") and name != "tensors"}
    assert len(client.sent) == len(verbs) + 1  # estimate_many sent two
    assert {payload["op"] for payload in client.sent} == set(OPS)
    for payload in client.sent:
        fields = protocol.read(payload["op"], payload)
        for name, value in payload.items():
            assert name == "op" or fields[name] == value
    register = next(p for p in client.sent if p["op"] == "register")
    spec = protocol.read("register", register)["spec"]
    assert spec.options == (("strict", True),)
    assert ServiceClient.register is RequestVerbs.register


# -- the fronts ---------------------------------------------------------------------


def test_both_fronts_register_exactly_the_ops_the_table_says_they_serve():
    inline = {"auth", "quit"}  # answered by the connection loop
    for placement, front in (("server", SketchServer),
                             ("router", ClusterRouter)):
        served = {op for op, descriptor in OPS.items()
                  if placement in descriptor.fronts}
        assert set(front._HANDLERS) == served - inline, placement


def test_a_router_forwards_only_table_fields(monkeypatch, tmp_path):
    """What crosses a router -> worker link is built from the op table: the
    op's declared fields, ``id``, and the two tenant-forwarding fields."""
    sent = []
    original = WorkerLink.request

    async def recording(self, payload, timeout=None):
        sent.append(dict(payload))
        return await original(self, payload, timeout)

    monkeypatch.setattr(WorkerLink, "request", recording)
    workers = [ThreadedServer(EstimationService(num_shards=2), config=(
        ServerConfig(admin_token="fleet"))).start() for _ in range(2)]
    router = RouterThread(
        [("127.0.0.1", worker.port) for worker in workers],
        RouterConfig(admin_token="root", worker_token="fleet")).start()
    try:
        with ServiceClient("127.0.0.1", router.port, token="root") as admin:
            admin.tenant("create", tenant="acme", token="acme-secret")
            with ServiceClient("127.0.0.1", router.port,
                               token="acme-secret") as acme:
                acme.register("rq", family="range", sizes=(64, 64),
                              instances=8)
                acme.request({"op": "ingest", "name": "rq", "side": "data",
                              "boxes": [[0, 0, 3, 3], [40, 40, 60, 60],
                                        [9, 50, 20, 63], [33, 2, 35, 8]],
                              "smuggled": 1, "id": "i1"})
                acme.flush()
                acme.request({"op": "estimate", "name": "rq", "id": "e1",
                              "query": [0, 0, 63, 63], "smuggled": 1})
                acme.stats(), acme.metrics()
                acme.unregister("rq")
            admin.snapshot(str(tmp_path / "cluster"))
    finally:
        router.stop()
        for worker in workers:
            worker.stop()
    assert {payload["op"] for payload in sent} >= {
        "tenant", "register", "ingest", "estimate", "flush", "stats",
        "metrics", "unregister", "snapshot"}
    for payload in sent:
        declared = {field.name for field in OPS[payload["op"]].fields}
        assert set(payload) <= declared | {"op", "id", "tenant", "scoped"}, \
            payload
    scattered = [p for p in sent if p["op"] == "estimate"]
    assert scattered and all(p["tenant"] == "acme" and p["scoped"]
                             and p["name"] == "acme/rq" for p in scattered)


# -- the CLI ------------------------------------------------------------------------

#: verb -> (ops whose table flags it takes, flags it declares by hand).
CONNECT = {"--connect", "--wire"}
VERB_FLAGS = {
    "ingest": (("auth", "ingest", "register"),
               CONNECT | {"--snapshot", "--count", "--boxes",
                          "--data-seed"}),
    "estimate": (("auth", "estimate"),
                 CONNECT | {"--snapshot", "--batch-file", "--batch-output",
                            "--explain", "--json"}),
    "tenant": (("auth", "tenant"), CONNECT | {"--json"}),
    "cluster status": (("auth", "cluster_status"), CONNECT | {"--json"}),
}


def _table_flags(ops):
    return {leaf.flag.split()[0] for op in ops for _, leaf in _leaves(op)
            if leaf.flag}


def _parser_flags(verb):
    parser = argparse.ArgumentParser()
    cli.VERBS[verb][1](parser)
    return {(action.option_strings or [action.dest])[0]
            for action in parser._actions} - {"-h"}


@pytest.mark.parametrize("verb", list(VERB_FLAGS))
def test_connect_verbs_take_exactly_the_flags_the_table_exposes(verb):
    ops, by_hand = VERB_FLAGS[verb]
    assert _parser_flags(verb) == _table_flags(ops) | by_hand


def test_table_flags_parse_into_wire_fields():
    parser = argparse.ArgumentParser()
    cli.VERBS["ingest"][1](parser)
    args = parser.parse_args([
        "--name", "eps", "--family", "epsilon", "--sizes", "64x32",
        "--epsilon", "3", "--endpoint-policy", "explicit", "--strict"])
    assert cli._given(args, "register") == {
        "name": "eps", "family": "epsilon", "sizes": [64, 32],
        "options": {"epsilon": 3, "strict": True,
                    "endpoint_policy": "explicit"}}
    assert cli._given(args, "ingest") == {"name": "eps", "side": "left",
                                          "kind": "insert"}
    assert (args.instances, args.seed) == (None, None)  # "as registered"


def test_every_verb_is_reachable_and_only_its_parser_is_built(capsys):
    assert list(cli.VERBS) == [
        "list", "run", "all", "ingest", "estimate", "serve", "tenant", "wal",
        "cluster serve", "cluster route", "cluster status"]
    for arguments in (["--help"], ["cluster", "--help"]):
        with pytest.raises(SystemExit) as info:
            cli.main(arguments)
        assert info.value.code == 0
    listing = capsys.readouterr().out
    for verb in cli.VERBS:
        assert verb.split()[-1] in listing
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


# -- the README ---------------------------------------------------------------------


def _cell(text):
    return str(text).replace("|", "\\|")


def render_ops_table():
    """The README's wire-protocol block, from the table."""
    lines = ["| op | served by | field | kind | default | CLI flag | meaning |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for name, op in OPS.items():
        first = next(other for other, same in OPS.items() if same is op)
        if first != name:
            lines.append(f"| `{name}` | | | | | | alias of `{first}` |")
            continue
        lines.append(f"| `{name}` | {', '.join(op.fronts)} | | | | | "
                     f"{_cell(op.help)} |")
        for field in op.fields:
            for leaf in (field, *field.members):
                label = (leaf.name if leaf is field
                         else f"{field.name}.{leaf.name}")
                default = ("required" if leaf.required else "" if
                           leaf.default is None else
                           f"`{json.dumps(leaf.default)}`")
                flag = f"`{leaf.flag}`" if leaf.flag else ""
                lines.append(f"| | | `{label}` | {leaf.kind} | {default} | "
                             f"{flag} | {_cell(leaf.help)} |")
    return "\n".join(lines)


def render_cli_table():
    """The README's CLI block: each ``--connect`` verb, the ops whose flags
    it takes from the table, and those flags."""
    lines = ["| verb | ops | flags from the op table |", "| --- | --- | --- |"]
    for verb, (ops, _) in VERB_FLAGS.items():
        flags = [leaf.flag.split()[0] for op in ops
                 for _, leaf in _leaves(op) if leaf.flag]
        lines.append(f"| `{verb}` | {', '.join(f'`{op}`' for op in ops)} | "
                     f"{' '.join(f'`{f}`' for f in dict.fromkeys(flags))} |")
    return "\n".join(lines)


@pytest.mark.parametrize("block, render", [("ops-table", render_ops_table),
                                           ("cli-flags", render_cli_table)])
def test_readme_blocks_are_the_table(block, render):
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"<!-- {block}:begin[^>]*-->\n(.*?)\n<!-- {block}:end -->",
                      text, re.DOTALL)
    assert found, f"README.md has no {block} block"
    assert found.group(1) == render(), (
        f"README.md's {block} block is stale; regenerate it with\n"
        f"  python -c \"from tests.test_protocol_table import *; "
        f"print({render.__name__}())\"")
