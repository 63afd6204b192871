"""Declarative perf-gate checker: ``gates.json`` instead of inline CI scripts.

Every perf-smoke benchmark writes a ``BENCH_<name>.json`` report at the
repository root; ``gates.json`` declares, per gate, which report to read
and which dotted metric paths must clear which floors (``min``) or stay
under which ceilings (``max``).  CI then runs::

    python benchmarks/check_gates.py --run wal

per matrix entry — ``--run`` executes the benchmark first (``pytest
<benchmark file> -q``), then enforces the declared checks — keeping the
workflow file free of logic and the thresholds reviewable in one place.

Exit status is non-zero as soon as any check fails; every checked metric
is printed either way so the CI log doubles as a perf record.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

GATES_PATH = pathlib.Path(__file__).parent / "gates.json"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def load_gates() -> dict:
    with open(GATES_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def resolve_metric(report: dict, dotted: str):
    """Walk a dotted path (``recovery.speedup``) through a report tree."""
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            sys.exit(f"report has no metric {dotted!r} (missing {part!r})")
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        sys.exit(f"metric {dotted!r} is not a number: {node!r}")
    return node


def run_benchmark(gate_name: str, gate: dict) -> None:
    command = [sys.executable, "-m", "pytest", gate["benchmark"], "-q"]
    print(f"[{gate_name}] $ {' '.join(command)}", flush=True)
    result = subprocess.run(command, cwd=REPO_ROOT)
    if result.returncode != 0:
        sys.exit(f"benchmark for gate {gate_name!r} failed "
                 f"(exit {result.returncode})")


def check_gate(gate_name: str, gate: dict) -> list[str]:
    """Enforce one gate's checks; returns failure messages (empty = pass)."""
    report_path = REPO_ROOT / gate["report"]
    if not report_path.exists():
        return [f"[{gate_name}] report {gate['report']} not found — "
                f"did the benchmark run?"]
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    failures = []
    print(f"[{gate_name}] {gate['title']}")
    for check in gate["checks"]:
        value = resolve_metric(report, check["metric"])
        # A floor ("min") or, for costs, a ceiling ("max").
        if "max" in check:
            bound, ok, relation, broken = (
                check["max"], value <= check["max"], "<=", ">")
        else:
            bound, ok, relation, broken = (
                check["min"], value >= check["min"], ">=", "<")
        print(f"  {'ok  ' if ok else 'FAIL'} {check['label']}: "
              f"{value:g} (gate {relation} {bound:g})")
        if not ok:
            failures.append(f"[{gate_name}] {check['failure']}: "
                            f"{check['metric']} = {value:g} {broken} {bound:g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run and/or enforce the declarative perf gates")
    parser.add_argument("gates", nargs="*",
                        help="gate names from gates.json (default: all)")
    parser.add_argument("--run", action="store_true",
                        help="run each gate's benchmark before checking")
    parser.add_argument("--list", action="store_true",
                        help="list the known gates and exit")
    args = parser.parse_args(argv)

    all_gates = load_gates()
    if args.list:
        for name, gate in all_gates.items():
            print(f"{name:10s} {gate['title']}")
        return 0

    names = args.gates or list(all_gates)
    unknown = [name for name in names if name not in all_gates]
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; "
                     f"known: {sorted(all_gates)}")

    failures: list[str] = []
    for name in names:
        gate = all_gates[name]
        if args.run:
            run_benchmark(name, gate)
        failures.extend(check_gate(name, gate))

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
