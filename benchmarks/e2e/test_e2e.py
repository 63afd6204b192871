"""Checks of the end-to-end benchmark itself.  Run explicitly (not in the
tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.server import wire  # noqa: E402

from benchmarks.e2e import harness, measure, trace, workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_plan(workload: str, seed: int = 0) -> wl.Plan:
    return wl.build_plan(workload, seed, SPEC["run_seconds"], smoke=True)


def server_children() -> list[int]:
    """Pids of live ``repro.cli`` processes this process started."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text().rsplit(") ", 1)[1].split()
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if (int(stat[1]) == os.getpid() and stat[0] != "Z"
                and b"repro.cli" in command):
            found.append(int(entry.name))
    return found


# -- the generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_plan_is_a_pure_function_of_the_seed(workload):
    first, again, other = (smoke_plan(workload, seed) for seed in (3, 3, 4))
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    # ... while the boxes left on the server never depend on the seed: the
    # accuracy metric relies on it.
    for key, rows in first.net.items():
        canonical = [r[np.lexsort(r.T[::-1])] for r in (rows, other.net[key])]
        assert np.array_equal(*canonical)


def test_ingest_call_is_one_flush_threshold_with_one_delete_frame():
    plan = smoke_plan("ingest_stream")
    for call in plan.calls:
        assert len(call.payloads) == wl.FRAMES_PER_INGEST_CALL
        assert sum(len(p["boxes"]) for p in call.payloads) == 8192 == call.boxes
        kinds = [p["kind"] for p in call.payloads]
        assert kinds.count("delete") == 1
        deleted, victim = call.payloads[7], call.payloads[2]
        assert (deleted["name"], deleted["side"]) == (victim["name"], victim["side"])
        assert np.array_equal(deleted["boxes"], victim["boxes"])


def test_a_fresh_cycle_waits_for_its_ingests_then_its_flush():
    call = smoke_plan("mixed_fresh").segments[0][0]
    ingests, flush, burst = call.windows
    assert [p["op"] for p in ingests] == ["ingest"] * len(wl.FRESH_SIDES)
    assert [p["op"] for p in flush] == ["flush"]
    assert {p["op"] for p in burst} == {"estimate"}


def test_estimate_bursts_mix_the_estimators():
    for workload, burst in (("estimate_hot", wl.BURST),
                            ("mixed_fresh", wl.FRESH_BURST)):
        call = smoke_plan(workload).segments[0][0]
        names = [p["name"] for p in call.windows[-1]]
        assert len(names) == burst == call.estimates
        assert names.count("rj") == names.count("cj") == burst // 16
    cold = smoke_plan("estimate_cold")
    rows = [tuple(p["query"]) for c in cold.calls for p in c.payloads
            if p["name"] == "rq"]
    assert len(set(rows)) == len(rows)


# -- failure accounting -------------------------------------------------------------


class ScriptedClient:
    """Answers every window ``ok``, except that one reply is overloaded."""

    def __init__(self, poisoned_window: int) -> None:
        self.windows = 0
        self.poisoned_window = poisoned_window

    def request_many(self, payloads):
        replies = [{"ok": True, "op": p["op"], "boxes": len(p.get("boxes", ()))}
                   for p in payloads]
        if self.windows == self.poisoned_window:
            replies[0] = {"ok": False, "error_code": "overloaded",
                          "error": "OverloadedError"}
        self.windows += 1
        return replies


def test_an_overloaded_reply_is_a_failed_call_without_a_latency():
    calls = smoke_plan("mixed_fresh").segments[0]
    tally = measure.Tally()
    # Window 4 is the flush of the second call.
    segment = measure.run_calls(ScriptedClient(poisoned_window=4), calls, tally)
    assert (tally.attempted, tally.failed) == (len(calls), 1)
    assert len(segment.latencies) == len(calls) - 1
    assert segment.ops == sum(c.ops for c in calls) - calls[1].ops


def test_a_short_ack_is_a_failed_call():
    call = smoke_plan("ingest_stream").segments[0][0]
    replies = [{"ok": True, "op": "ingest", "boxes": len(p["boxes"])}
               for p in call.payloads]
    assert measure.call_succeeded(call, replies)
    replies[3]["boxes"] -= 1
    assert not measure.call_succeeded(call, replies)


def test_a_wrong_estimate_fails_verification():
    reference = {"rq": [1.5, -2.25], "rj": 7.0, "cj": 9.0,
                 "counts": {"rj": [10, 20]}, "truth": [3, 4]}
    answers = {"rq": [1.5, -2.25], "rj": 7.0, "cj": 9.0,
               "counts": {"rj": [10, 20]}, "ingested_boxes": 30}
    assert measure.mismatches(answers, reference, 30) == []
    wrong = dict(answers, rq=[1.5, np.nextafter(-2.25, 0.0)])
    assert len(measure.mismatches(wrong, reference, 30)) == 1
    assert len(measure.mismatches(answers, reference, 31)) == 1
    assert len(measure.mismatches(dict(answers, counts={"rj": [10, 21]}),
                                  reference, 30)) == 1


def test_a_replayed_reply_that_differs_from_the_live_one_is_reported():
    live = [{"ok": True, "op": "ingest", "boxes": 256, "pending": 512},
            {"ok": True, "op": "estimate", "name": "rq", "estimate": 2.5}]
    same = [dict(live[0], pending=256), dict(live[1])]
    assert trace.replay_mismatches(0, same, live) == []
    wrong = [same[0], dict(same[1], estimate=np.nextafter(2.5, 3.0))]
    assert len(trace.replay_mismatches(0, wrong, live)) == 1
    assert len(trace.replay_mismatches(0, same[:1], live)) == 1


def test_percentiles_of_short_segments_are_pooled():
    def segments(per_segment):
        latencies = iter(np.linspace(0.010, 0.090, 8 * per_segment))
        return [measure.Segment(wall=1.0, cpu=0.5, ops=per_segment, latencies=[
            next(latencies) for _ in range(per_segment)]) for _ in range(8)]

    short = measure.timing_metrics(segments(2))
    pooled = [l for s in segments(2) for l in s.latencies]
    assert short["call_p90_ms"][0] == pytest.approx(
        1e3 * np.percentile(pooled, 90))
    full = segments(measure.POOL_BELOW)
    assert measure.timing_metrics(full)["call_p90_ms"][0] == pytest.approx(
        np.median([1e3 * np.percentile(s.latencies, 90) for s in full]))


# -- live servers -------------------------------------------------------------------


def run_cli(*args: str) -> tuple[int, dict, str]:
    """Exit code, the driver's result line and the whole output."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout


def test_smoke_run_of_every_workload_verifies_within_a_minute():
    start = time.monotonic()
    for workload in wl.WORKLOADS:
        code, result, output = run_cli("--workload", workload, "--smoke",
                                       "--seed", "5", "--trace", "0")
        assert code == 0, output
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == 12
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"] and value["value"] > 0
    assert time.monotonic() - start < 60
    assert server_children() == []


@pytest.mark.parametrize("workload, auto", [("ingest_stream", True),
                                            ("mixed_fresh", False)])
def test_every_writing_call_triggers_exactly_one_flush(workload, auto):
    plan = smoke_plan(workload)
    fleet, _ = harness.set_up(plan)
    with fleet:
        before = fleet.client.stats()["ingest"]
        tally = measure.Tally()
        measure.run_calls(fleet.client, plan.calls, tally)
        after = fleet.client.stats()["ingest"]
    assert tally.failed == 0
    assert after["flushes"] - before["flushes"] == len(plan.calls)
    assert (after["auto_flushes"] - before["auto_flushes"]
            == (len(plan.calls) if auto else 0))


def test_wire_byte_deltas_can_be_cleared_of_the_stats_frames():
    """trace.read_counters subtracts its own stats frames by re-encoding
    them; that is exact only if re-encoding reproduces the server's bytes."""
    fleet, _ = harness.set_up(smoke_plan("estimate_hot"))
    with fleet:
        first, second, third = (fleet.client.stats() for _ in range(3))
    def binary(stats):
        return stats["server"]["wire"]["binary"]
    assert (binary(third)["bytes_out"] - binary(second)["bytes_out"]
            == len(wire.encode_binary(second)))
    assert (binary(third)["bytes_in"] - binary(second)["bytes_in"]
            == len(wire.encode_binary({"op": "stats"})))
    assert first["ok"]


def test_traced_run_names_every_layer_metric_and_its_spans_nest():
    code, result, output = run_cli("--workload", "mixed_fresh", "--smoke",
                                   "--trace", "1")
    assert code == 0, output
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["service.service.delta_apply_share"]["value"] > 0
    assert "server.server.residual_share" in result["metrics"]
    trace = json.loads((HERE / "out" / "trace_mixed_fresh.json").read_text())
    spans = [dict(zip(trace["columns"], row)) for row in trace["spans"]]
    roots = [s for s in spans if s["parent"] is None]
    calls = [s for s in roots if s["name"] == "call"]
    assert len(calls) == 8 and len({s["call"] for s in calls}) == 8
    assert {s["name"] for s in roots} == {"call", "probes"}
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert span["call"] == parent["call"]


def test_fleets_are_torn_down_on_failure_and_interrupt(monkeypatch):
    for routed, error in ((False, RuntimeError), (True, KeyboardInterrupt)):
        fleet = harness.Fleet(routed=routed)
        fleet.start()
        directory = fleet.directory
        assert len(server_children()) == (3 if routed else 1)
        with pytest.raises(error):
            with fleet:
                raise error()
        assert server_children() == []
        assert not os.path.exists(directory)

    def refuse(client, payloads):
        raise RuntimeError("injected preload failure")

    monkeypatch.setattr(harness, "request_all", refuse)
    with pytest.raises(RuntimeError, match="injected"):
        harness.set_up(smoke_plan("mixed_routed"))
    assert server_children() == []
    assert not list(harness.OUT.glob("run-*"))
