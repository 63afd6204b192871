"""The five traffic shapes, generated before any timing starts.

A *plan* is everything one run sends: the preload, one untimed warm-up
segment and ``SEGMENTS`` equal timed segments of *calls*.  A call is one
or more pipelined windows of request payloads; the load generator waits
for every reply of a window before it sends the next window or the next
call (a closed loop).  The plan is a pure function of ``(workload, seed,
seconds)``: ``--seconds`` fixes the amount of work (calls per segment),
never the duration — counts repeat exactly from run to run, only timings
vary.

Every *box* a run ingests comes from pools drawn from ``DATA_SEED``; the
``--seed`` decides which frame carries which box, the query rectangles
and their order.  The net multiset of boxes a workload leaves on the
server is therefore the same for every seed.  The accuracy metric needs
that: over ten data draws ``rel_err_p50`` of the 64 probes spreads by
10-17 % (inter-quartile range over median), which would hide any change
a code edit makes to it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.domain import Domain
from repro.server import wire
from repro.service import EstimatorSpec, synthetic_boxes, synthetic_queries

SIZE = 1024
DOMAIN = Domain.square(SIZE, 2)
INSTANCES = 256
#: name, family, sketch seed of the three registered estimators.
ESTIMATORS = (("rq", "range", 11), ("rj", "rectangle", 12),
              ("cj", "containment", 13))
#: every ingestible (estimator, side), in the round-robin order of ingest frames.
SIDES = (("rq", "data"), ("rj", "left"), ("rj", "right"),
         ("cj", "outer"), ("cj", "inner"))
#: the sides a read-your-writes cycle writes to.
FRESH_SIDES = (("rq", "data"), ("rj", "left"), ("cj", "inner"))

DATA_SEED = 20040613
PRELOAD_PER_SIDE = 4000
FRAME_BOXES = 1024
#: 8 frames x 1024 boxes is exactly the server's auto-flush threshold, so
#: every ingest call contains exactly one flush.
FRAMES_PER_INGEST_CALL = 8
BURST = 128          # 2 x max_batch: size-triggered coalescer dispatches only
FRESH_BURST = 32     # < max_batch: dispatched by the 2 ms coalescer timer
FRESH_BOXES = 256
HOT_POOL = 64
PROBES = 64

SEGMENTS = 8
SETUP_REPEATS = 3
#: calls per segment at ``--seconds 10``, sized so that the eight timed
#: segments take 7-10 s on the reference box; ``--seconds`` scales the
#: count (the work, not the time).
NOMINAL_SECONDS = 10.0
CALLS_PER_SEGMENT = {"estimate_hot": 42, "estimate_cold": 29,
                     "ingest_stream": 2, "mixed_fresh": 11,
                     "mixed_routed": 6}
WORKLOADS = tuple(CALLS_PER_SEGMENT)


@dataclass(frozen=True)
class Call:
    """The pipelined windows of one call and what their replies should ack."""

    windows: tuple[tuple[dict, ...], ...]
    boxes: int       # boxes the ingest replies must acknowledge
    estimates: int   # estimates the call asks for

    @property
    def payloads(self) -> tuple[dict, ...]:
        return tuple(p for window in self.windows for p in window)

    @property
    def ops(self) -> int:
        return self.boxes + self.estimates


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    routed: bool
    preload: tuple[tuple[str, str, np.ndarray], ...]   # (name, side, rows)
    warmup: tuple[Call, ...]
    segments: tuple[tuple[Call, ...], ...]
    probes: np.ndarray                                 # (PROBES, 4) rq rectangles
    #: (name, side) -> rows of every box left on the server once all calls
    #: are acknowledged (inserts minus deletes).
    net: dict[tuple[str, str], np.ndarray]

    @property
    def calls(self) -> tuple[Call, ...]:
        return self.warmup + tuple(c for seg in self.segments for c in seg)

    def digest(self) -> str:
        """SHA-256 of every frame the plan sends, in order."""
        sha = hashlib.sha256()
        for name, side, rows in self.preload:
            sha.update(wire.encode_binary(ingest_payload(name, side, rows)))
        for call in self.calls:
            for payload in call.payloads:
                sha.update(wire.encode_binary(payload))
        return sha.hexdigest()


def estimator_specs() -> dict[str, EstimatorSpec]:
    """The specs a wire ``register`` of :data:`ESTIMATORS` builds."""
    return {name: EstimatorSpec.create(family, (SIZE, SIZE), INSTANCES,
                                       seed=sketch_seed)
            for name, family, sketch_seed in ESTIMATORS}


def rows_of(boxes) -> np.ndarray:
    return np.ascontiguousarray(np.hstack([boxes.lows, boxes.highs]),
                                dtype=np.int64)


def ingest_payload(name: str, side: str, rows: np.ndarray,
                   kind: str = "insert") -> dict:
    return {"op": "ingest", "name": name, "boxes": rows, "side": side,
            "kind": kind}


def estimate_payload(name: str, row=None) -> dict:
    return {"op": "estimate", "name": name,
            "query": None if row is None else [int(c) for c in row]}


def _pool(count: int, *stream: int) -> np.ndarray:
    """``count`` boxes that depend on ``DATA_SEED`` only, never on --seed."""
    return rows_of(synthetic_boxes(DOMAIN, count, seed=[DATA_SEED, *stream]))


def probe_rectangles() -> np.ndarray:
    """The fixed accuracy probes: every extent at least 1/8 of the domain."""
    rng = np.random.default_rng([DATA_SEED, 7])
    extents = rng.integers(SIZE // 8, SIZE // 2, size=(PROBES, 2))
    lows = rng.integers(0, SIZE - SIZE // 8, size=(PROBES, 2))
    highs = np.minimum(lows + extents, SIZE - 1)
    return np.hstack([lows, highs]).astype(np.int64)


def _burst(size: int, rectangles) -> list[dict]:
    """``size`` estimates mixing the estimators 14 rq : 1 rj : 1 cj per 16,
    so every coalescer dispatch is a cross-estimator ``estimate_multi``."""
    rectangles = iter(rectangles)
    payloads = []
    for index in range(size):
        slot = index % 16
        if slot == 14:
            payloads.append(estimate_payload("rj"))
        elif slot == 15:
            payloads.append(estimate_payload("cj"))
        else:
            payloads.append(estimate_payload("rq", next(rectangles)))
    return payloads


def _rq_slots(size: int) -> int:
    return sum(1 for index in range(size) if index % 16 < 14)


def _query_rows(count: int, rng: np.random.Generator) -> np.ndarray:
    return rows_of(synthetic_queries(DOMAIN, count,
                                     seed=int(rng.integers(1 << 31)),
                                     max_extent_fraction=0.5))


def _estimate_calls(count: int, rng, *, hot: bool, burst: int) -> list[Call]:
    per_call = _rq_slots(burst)
    if hot:
        pool = _query_rows(HOT_POOL, rng)
        picks = pool[rng.integers(0, HOT_POOL, size=(count, per_call))]
    else:
        wanted = count * per_call
        unique = np.unique(_query_rows(wanted + wanted // 4 + 64, rng), axis=0)
        if len(unique) < wanted:
            raise RuntimeError("not enough distinct cold rectangles")
        picks = unique[rng.permutation(len(unique))[:wanted]].reshape(
            count, per_call, 4)
    return [Call((tuple(_burst(burst, picks[index])),), 0, burst)
            for index in range(count)]


def _ingest_calls(count: int, rng) -> tuple[list[Call], dict]:
    """Write-only turnstile stream.

    Frame ``f`` goes to side ``f % 5``; in each call frame 7 deletes the
    boxes frame 2 of the same call inserted (same side, 5 frames earlier),
    so 1 frame in 8 is a delete and 6 of 8 stay.  The kept boxes are each
    side's whole keeper pool, in a seed-chosen order.
    """
    frames = count * FRAMES_PER_INGEST_CALL
    roles = []
    for frame in range(frames):
        slot = frame % FRAMES_PER_INGEST_CALL
        roles.append("delete" if slot == 7 else "victim" if slot == 2
                     else "keeper")
    pools: dict[tuple[int, str], np.ndarray] = {}
    for index in range(len(SIDES)):
        for role, stream in (("keeper", 100), ("victim", 200)):
            chunks = sum(1 for frame in range(frames)
                         if frame % len(SIDES) == index and roles[frame] == role)
            rows = _pool(chunks * FRAME_BOXES, stream + index)
            pools[index, role] = rows[rng.permutation(len(rows))]
    cursor = {key: 0 for key in pools}
    frame_rows: list[np.ndarray] = []
    calls: list[Call] = []
    for frame in range(frames):
        index = frame % len(SIDES)
        name, side = SIDES[index]
        role = roles[frame]
        if role == "delete":
            rows = frame_rows[frame - len(SIDES)]
        else:
            start = cursor[index, role]
            rows = pools[index, role][start:start + FRAME_BOXES]
            cursor[index, role] = start + FRAME_BOXES
        frame_rows.append(rows)
        if frame % FRAMES_PER_INGEST_CALL == 0:
            payloads: list[dict] = []
        payloads.append(ingest_payload(
            name, side, rows, "delete" if role == "delete" else "insert"))
        if len(payloads) == FRAMES_PER_INGEST_CALL:
            calls.append(Call((tuple(payloads),),
                              FRAMES_PER_INGEST_CALL * FRAME_BOXES, 0))
    kept = {SIDES[index]: pools[index, "keeper"] for index in range(len(SIDES))}
    return calls, kept


def _fresh_calls(count: int, rng) -> tuple[list[Call], dict]:
    """Read-your-writes cycles: ingest, flush, then a hot estimate burst.

    Three windows, each sent once the one before is acknowledged: the
    server runs pipelined requests concurrently, so in a single window the
    flush can overtake an ingest and the estimates can overtake the flush.
    """
    pools = {}
    for index, key in enumerate(FRESH_SIDES):
        rows = _pool(count * FRESH_BOXES, 300 + index)
        pools[key] = rows[rng.permutation(len(rows))]
    bursts = _estimate_calls(count, rng, hot=True, burst=FRESH_BURST)
    calls = []
    for index in range(count):
        window = slice(index * FRESH_BOXES, (index + 1) * FRESH_BOXES)
        ingests = tuple(ingest_payload(name, side, pools[name, side][window])
                        for name, side in FRESH_SIDES)
        calls.append(Call((ingests, ({"op": "flush"},),
                           bursts[index].payloads),
                          len(FRESH_SIDES) * FRESH_BOXES, FRESH_BURST))
    return calls, pools


def sizing(workload: str, seconds: float, smoke: bool) -> tuple[int, int, int]:
    """``(segments, calls per segment, preload boxes per side)``."""
    if smoke:
        return 2, 4, 512
    per_segment = round(CALLS_PER_SEGMENT[workload] * seconds / NOMINAL_SECONDS)
    return SEGMENTS, max(1, per_segment), PRELOAD_PER_SIDE


def build_plan(workload: str, seed: int, seconds: float, *,
               smoke: bool = False) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    segments, per_segment, preload_boxes = sizing(workload, seconds, smoke)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    total = per_segment * (segments + 1)
    kept: dict = {}
    if workload == "estimate_hot":
        calls = _estimate_calls(total, rng, hot=True, burst=BURST)
    elif workload == "estimate_cold":
        calls = _estimate_calls(total, rng, hot=False, burst=BURST)
    elif workload == "ingest_stream":
        calls, kept = _ingest_calls(total, rng)
    else:
        calls, kept = _fresh_calls(total, rng)
    preload = tuple((name, side, _pool(preload_boxes, index))
                    for index, (name, side) in enumerate(SIDES))
    net = {}
    for name, side, rows in preload:
        extra = kept.get((name, side))
        net[name, side] = rows if extra is None else np.vstack([rows, extra])
    return Plan(
        workload=workload, seed=int(seed), routed=workload == "mixed_routed",
        preload=preload, warmup=tuple(calls[:per_segment]),
        segments=tuple(tuple(calls[start:start + per_segment])
                       for start in range(per_segment, total, per_segment)),
        probes=probe_rectangles(), net=net)
