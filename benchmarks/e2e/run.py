"""End-to-end benchmark: five closed-loop workloads over the binary wire.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--compare FILE]

One run starts the real server processes, drives them from this one
process over one ``ServiceClient(wire="binary")`` connection in a closed
loop, verifies every output against an in-process replay and prints every
metric by name with its unit.  The last lines of standard output are the
full result record (one JSON line; a file of such lines is what
``--compare`` reads) and, per workload, the driver's result line.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark "
             "measures the repository's own source tree")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from benchmarks.e2e import harness, measure, workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the metrics with a regression bound; everything else is informational.
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
UNITS = {name: m["unit"] for name, m in {**PER_LAYER, **END_TO_END}.items()}


def hardware_stamp(seed: int, seconds: float) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    commit = "unknown"     # an exported tree, not a clone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                text=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba": numba_version, "seed": seed, "seconds": seconds,
            "commit": commit}


def run_end_to_end(plan: wl.Plan, *, setups: int) -> dict:
    """Set up ``setups`` times (all but the last torn down at once), run
    the segments on the last, verify; returns the result record."""
    setup_seconds = []
    for _ in range(setups - 1):
        fleet, elapsed = harness.set_up(plan)
        fleet.close()
        setup_seconds.append(elapsed)
    fleet, elapsed = harness.set_up(plan)
    setup_seconds.append(elapsed)
    with fleet:
        tally = measure.Tally()
        segments = measure.run_segments(fleet, plan, tally)
        peak_rss_mb = fleet.peak_rss_mb()
        answers = measure.fetch_answers(fleet, plan)
    problems, reference = measure.verify(plan, answers, tally)
    timings = measure.timing_metrics(segments)
    values = {"setup_s": statistics.median(setup_seconds)}
    values.update({name: median for name, (median, _) in timings.items()})
    values["peak_rss_mb"] = peak_rss_mb
    values["rel_err_p50"] = measure.rel_err_p50(answers, reference)
    iqr_rel = {name: spread for name, (_, spread) in timings.items()}
    iqr_rel["setup_s"] = measure.summarise(setup_seconds)[1]
    calls = sum(len(segment.latencies) for segment in segments)
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "succeeded": tally.attempted - tally.failed,
        "problems": problems, "end_to_end": values, "iqr_rel": iqr_rel,
        "samples": {"segments": len(segments), "timed_calls": calls,
                    "calls_per_segment": len(plan.segments[0]),
                    "setups": setups},
    }


def print_table(workload: str, result: dict, key: str) -> None:
    samples = result["samples"]
    note = (f"{samples['segments']} segments, "
            f"{samples['timed_calls']} timed calls")
    for name, value in result[key].items():
        spread = result.get("iqr_rel", {}).get(name)
        extra = f"  iqr_rel {spread:.4f}" if spread is not None else ""
        if name in END_TO_END:
            extra += f"  bound {END_TO_END[name]['bound']:.0%}"
        if name.startswith("call_p"):
            extra += f"  ({note})"
        print(f"{workload:15s} {name:48s} {value:14.6g} {UNITS[name]}{extra}")
    print(f"{workload:15s} calls attempted {result['attempted']} "
          f"succeeded {result['succeeded']} failed {result['failed']} "
          f"verified {'yes' if result['correct'] else 'NO'}")
    for problem in result["problems"][:10]:
        print(f"{workload:15s} MISMATCH {problem}")


def compare(results: dict, baseline_path: str, key: str) -> None:
    """Deltas against a baseline: a file of result-record lines, as two
    runs (``--trace 0`` and ``--trace 1``) redirected into it leave them."""
    baseline: dict = {}
    for line in Path(baseline_path).read_text().splitlines():
        if line.startswith('{"stamp"'):
            for workload, result in json.loads(line)["workloads"].items():
                baseline.setdefault(workload, {}).update(result)
    for workload, result in results.items():
        base = baseline.get(workload, {}).get(key)
        if base is None:
            print(f"{workload}: no {key} record in {baseline_path}")
            continue
        for name, value in result[key].items():
            if not base.get(name):
                continue
            change = (value - base[name]) / base[name]
            verdict = "informational"
            if name in END_TO_END:
                spec = END_TO_END[name]
                worse = change if spec["better"] == "lower" else -change
                verdict = (f"bound {spec['bound']:.0%} "
                           + ("REGRESSION" if worse > spec["bound"] else "ok"))
            print(f"{workload:15s} {name:48s} {base[name]:12.5g} -> "
                  f"{value:12.5g} {UNITS[name]:10s} {change:+8.2%} {verdict}")


def final_line(result: dict, key: str, metrics: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result[key][name], "unit": UNITS[name]}
                    for name in metrics}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="sizes the fixed work of a run (calls per "
                             "segment) for about this much timed work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 = per-layer metrics from a traced replay")
    parser.add_argument("--smoke", action="store_true",
                        help="2 segments x 4 calls, one set-up (tests)")
    parser.add_argument("--compare", metavar="FILE", default=None,
                        help="print deltas against a baseline result file")
    args = parser.parse_args(argv)
    # Convert SIGTERM into an exception so every fleet is torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    record = {"stamp": hardware_stamp(args.seed, args.seconds),
              "workloads": {}}
    lines = []
    for workload in names:
        plan = wl.build_plan(workload, args.seed, args.seconds,
                             smoke=args.smoke)
        if args.trace:
            from benchmarks.e2e import trace
            result = trace.run_traced(plan, list(PER_LAYER))
            key, metrics = "per_layer", PER_LAYER
        else:
            result = run_end_to_end(
                plan, setups=1 if args.smoke else wl.SETUP_REPEATS)
            key, metrics = "end_to_end", END_TO_END
        record["workloads"][workload] = result
        print_table(workload, result, key)
        lines.append(final_line(result, key, metrics))
    if args.compare:
        compare(record["workloads"], args.compare, key)
    print(json.dumps(record))
    for line in lines:
        print(line)
    return 0 if all(r["correct"] for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
