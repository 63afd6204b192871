"""Shared infrastructure for the benchmark suite.

Every paper figure has one benchmark module.  A benchmark

* regenerates the figure's data series through
  :mod:`repro.experiments.figures` (timed once via ``benchmark.pedantic``),
* prints the series and writes it to the gitignored ``BENCH_<figure>.txt``
  at the repository root, so the run leaves a record of the
  paper-vs-measured comparison without rewriting the committed one under
  ``benchmarks/results/``,
* asserts the *qualitative shape* the paper reports (the absolute numbers
  depend on the scaled-down defaults of
  :data:`repro.experiments.config.LAPTOP_SCALE`).

Select the experiment scale with ``--figure-scale {tiny,laptop,paper}``
(default: laptop).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.config import get_scale
from repro.experiments.reporting import FigureResult

ROOT = pathlib.Path(__file__).parent.parent


def write_record(name: str, text: str) -> None:
    """Echo one run's record and write it to ``BENCH_<name>.txt`` at the
    repository root (gitignored): a run never rewrites the committed
    records under ``benchmarks/results/``."""
    print("\n" + text)
    (ROOT / f"BENCH_{name}.txt").write_text(text + "\n", encoding="utf-8")


def pytest_addoption(parser):
    parser.addoption("--figure-scale", action="store", default="laptop",
                     choices=("tiny", "laptop", "paper"),
                     help="experiment scale used by the figure benchmarks")


@pytest.fixture(scope="session")
def figure_scale(request):
    return get_scale(request.config.getoption("--figure-scale"))


@pytest.fixture(scope="session")
def shape_checks(figure_scale) -> bool:
    """Whether the paper-shape assertions should be enforced.

    The ``tiny`` scale exists purely as a fast smoke test; its datasets are
    far too small for the statistical shape claims, so those assertions are
    only enforced at the ``laptop`` and ``paper`` scales.
    """
    return figure_scale.name != "tiny"


@pytest.fixture(scope="session")
def record_figure():
    """Record a FigureResult (see :func:`write_record`) and echo it."""

    def _record(result: FigureResult) -> FigureResult:
        write_record(result.figure_id, result.to_text())
        return result

    return _record


@pytest.fixture(scope="module")
def record_gate(request):
    """Echo a gate benchmark's records and write them, in the order this run
    made them, beside the module's ``REPORT_PATH`` as ``BENCH_<gate>.txt``
    (gitignored like the JSON report).  A gate run never rewrites the
    committed records under ``benchmarks/results/``."""
    path = request.module.REPORT_PATH.with_suffix(".txt")
    records: dict[str, str] = {}

    def _record(name: str, lines: list[str]) -> None:
        text = "\n".join(lines)
        print("\n" + text)
        records[name] = text
        path.write_text("\n\n".join(records.values()) + "\n", encoding="utf-8")

    return _record


def run_figure(benchmark, generator, scale, seed: int = 0) -> FigureResult:
    """Run a figure generator exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: generator(scale, seed=seed), rounds=1, iterations=1)
