"""Engine benchmark: sketch-driven join ordering quality.

Records the true C_out (the sum of exact intermediate cardinalities) of the
order chosen with sketch-based selectivity estimates beside the counts-only
order (the two smallest relations first) and the best and worst enumerated
orders.  The assertions bound the chosen order loosely: no worse than the
worst order, and within 4x + 1000 of the best.  On this workload relation
sizes decide, and the sketch-driven order can be the worst one.
"""

import os
import platform

import numpy as np

from repro.experiments.figures import engine_optimizer_experiment

from benchmarks.conftest import run_figure


def test_optimizer_plan_quality(benchmark, figure_scale, record_figure):
    result = run_figure(benchmark, engine_optimizer_experiment, figure_scale, seed=0)
    result.notes += (f"; hardware: {os.cpu_count()} CPUs, {platform.machine()}, "
                     f"python {platform.python_version()}, numpy {np.__version__}")
    record_figure(result)

    rows = {row[0].rsplit("(", 1)[1].rstrip(")"): dict(zip(result.columns, row))
            for row in result.rows}
    chosen = rows["chosen"]["true_c_out"]
    best = rows["best"]["true_c_out"]
    worst = rows["worst"]["true_c_out"]
    assert chosen <= worst
    assert chosen <= 4 * best + 1000
    # All orders compute the same result.
    assert len({row["result_cardinality"] for row in rows.values()}) == 1
