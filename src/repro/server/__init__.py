"""Async network serving layer for the sketch service.

One serving front, two placements.  :class:`~repro.server.front.ServingFront`
is the protocol endpoint — pipelined in-order connections, ``auth`` and
tenant gating, per-tenant quota admission, request dispatch, the
``ping`` / ``tenant`` verbs and the ``stats`` / ``metrics`` reply shapes —
written once.  Where the counters live is a subclass:

* :class:`~repro.server.server.SketchServer` — one local
  :class:`~repro.service.service.EstimationService`, its estimates
  micro-batched by the :class:`~repro.server.coalescer.EstimateCoalescer`
  into single engine calls; live ``reload`` and snapshot / checkpoint
  verbs,
* :class:`~repro.cluster.router.ClusterRouter` (in :mod:`repro.cluster`) —
  a hash-partitioned worker fleet behind scatter-gather.

:func:`~repro.server.front.serve` runs either until signalled;
:class:`~repro.server.runner.ThreadedServer` drives a server on a
background event-loop thread.

Every frame names its own format by its first byte: NDJSON lines
(:mod:`repro.server.protocol`) and the length-prefixed binary frames of
:mod:`repro.server.wire` (raw tensor bytes, zero-copy decode) mix freely
on one connection, each reply in its request's format; see the README's
"Wire formats" section.

The matching synchronous client lives in :mod:`repro.client`.
"""

import importlib

#: Where each re-export lives.  A name's module loads on first use, so a
#: process loads only what it touches: a router never loads the local
#: server, and a ``serve`` process never runs a loop thread.
_HOMES = {
    "repro.server.coalescer": ("CoalescerStats", "EstimateCoalescer"),
    "repro.server.metrics": ("ServerMetrics",),
    "repro.server.protocol": (
        "MAX_LINE_BYTES", "OPS", "PROTOCOL_VERSION", "boxes_from_rows", "boxes_to_rows",
        "decode", "encode", "error_payload", "estimate_fields", "ok_payload",
        "raise_for_response",
    ),
    "repro.server.front": ("serve",),
    "repro.server.server": ("ServerConfig", "SketchServer"),
    "repro.server.wire": ("WIRE_BINARY", "WIRE_FORMATS", "WIRE_NDJSON"),
    "repro.server.runner": ("ThreadedServer",),
}

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "WIRE_NDJSON",
    "WIRE_BINARY",
    "WIRE_FORMATS",
    "encode",
    "decode",
    "ok_payload",
    "error_payload",
    "estimate_fields",
    "boxes_from_rows",
    "boxes_to_rows",
    "raise_for_response",
    "EstimateCoalescer",
    "CoalescerStats",
    "ServerMetrics",
    "ServerConfig",
    "SketchServer",
    "serve",
    "ThreadedServer",
]


def __getattr__(name: str):
    for module, names in _HOMES.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
