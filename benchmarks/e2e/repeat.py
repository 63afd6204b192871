"""Repeatability check: run full sets of the same code and compare their medians.

    python3 benchmarks/e2e/repeat.py [--sets 2] [--runs 3] [--seconds S]
                                     [--workload NAME ...]

Every run is a fresh ``run.py`` process, and run ``r`` of every set uses
``--seed r``, so the sets see identical inputs.  The sets are interleaved
— run ``r`` of set 1, then run ``r`` of set 2, then run ``r + 1`` of set 1
— so that the host's slow drift falls on every set alike.  For each
workload and end-to-end metric the table shows each set's median and
spread (the inter-quartile range of its runs over their median), how much
worse the last set's median is than the first's, and the bound from
``BENCHMARK.json`` (``-`` for a metric reported without one).  Exits
non-zero when a difference exceeds its bound or a run fails verification.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """The full result record of one ``--trace 0`` run of one workload."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{done.returncode}\n{done.stdout[-2000:]}")
    return json.loads(lines[-2])["workloads"][workload]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--workload", action="append", default=None,
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    # values[workload][metric][set] -> one value per run
    values: dict = {w: {} for w in workloads}
    incorrect = 0
    for workload in workloads:
        for seed in range(args.runs):
            for index in range(args.sets):
                result = one_run(workload, seed, args.seconds)
                incorrect += not result["correct"]
                for name, value in result["end_to_end"].items():
                    values[workload].setdefault(
                        name, [[] for _ in range(args.sets)])[index].append(value)
                print(f"# {workload} seed {seed} set {index + 1} done",
                      file=sys.stderr, flush=True)

    print(f"{args.sets} interleaved sets x {args.runs} runs, --seconds "
          f"{args.seconds:g}; diff = how much worse the last set's median is "
          "than the first's")
    print(f"{'workload':14s} {'metric':14s}"
          + "".join(f" {'set' + str(i + 1):>11s} {'spread':>7s}"
                    for i in range(args.sets))
          + f" {'diff':>8s} {'bound':>6s}")
    exceeded = 0
    for workload in workloads:
        for name, sets in values[workload].items():
            medians = [statistics.median(runs) for runs in sets]
            change = (medians[-1] - medians[0]) / abs(medians[0])
            worse = change if directions[name] == "lower" else -change
            bound = bounds[name]["bound"] if name in bounds else None
            over = bound is not None and worse > bound
            exceeded += over
            print(f"{workload:14s} {name:14s}"
                  + "".join(f" {median:11.5g} {spread(runs):7.2%}"
                            for median, runs in zip(medians, sets))
                  + f" {worse:+8.2%} "
                  + (f"{bound:6.0%}" if bound is not None else f"{'-':>6s}")
                  + ("  EXCEEDED" if over else ""))
    print(f"{exceeded} difference(s) beyond their bound, "
          f"{incorrect} run(s) failed verification")
    return 1 if exceeded or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
