"""Experiment scales.

The paper evaluates datasets of 30 K - 500 K objects with 36 K words of
summary memory.  Running every figure at that scale in pure Python takes
hours, so the default ("laptop") scale shrinks dataset sizes and memory
budgets while keeping every ratio that drives the qualitative behaviour
(objects per cell, summary words per object, result size vs. self-join
size).  The paper-scale parameters are retained for completeness and can be
selected via the CLI (``--scale paper``) when time permits; ``TINY_SCALE``
exists for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """All tunable sizes of the figure experiments."""

    name: str
    #: Number of independent sketch runs averaged per data point.
    runs: int

    # Figures 5 and 6: synthetic 2-d joins, error vs dataset size.
    synthetic_sizes: tuple[int, ...]
    synthetic_domain: int
    synthetic_budget_words: int

    # Figures 7 and 8: 1-d guarantee / space experiments.
    guarantee_sizes: tuple[int, ...]
    guarantee_domain: int
    guarantee_epsilon: float
    guarantee_phi: float
    guarantee_max_instances: int

    # Figures 9-11: simulated real-life joins, error vs space.
    reallife_scale: float
    reallife_domain: int
    reallife_budgets: tuple[int, ...]

    # Ablations.
    ablation_size: int
    ablation_domain: int
    ablation_instances: int

    notes: str = ""


PAPER_SCALE = ExperimentScale(
    name="paper",
    runs=5,
    synthetic_sizes=(30_000, 100_000, 200_000, 350_000, 500_000),
    synthetic_domain=16_384,
    synthetic_budget_words=36_000,
    guarantee_sizes=(30_000, 100_000, 200_000, 350_000, 500_000),
    guarantee_domain=65_536,
    guarantee_epsilon=0.3,
    guarantee_phi=0.01,
    guarantee_max_instances=20_000,
    reallife_scale=1.0,
    reallife_domain=16_384,
    reallife_budgets=(2_500, 5_000, 10_000, 15_000, 20_000, 30_000, 40_000),
    ablation_size=50_000,
    ablation_domain=16_384,
    ablation_instances=2_048,
    notes="Parameters matching the paper; expect long run times in pure Python.",
)

LAPTOP_SCALE = ExperimentScale(
    name="laptop",
    runs=3,
    synthetic_sizes=(3_000, 6_000, 9_000, 12_000),
    synthetic_domain=1_024,
    synthetic_budget_words=9_000,
    guarantee_sizes=(2_000, 4_000, 8_000),
    guarantee_domain=16_384,
    guarantee_epsilon=0.3,
    guarantee_phi=0.01,
    guarantee_max_instances=2_500,
    reallife_scale=0.15,
    reallife_domain=16_384,
    reallife_budgets=(600, 1_200, 2_500, 5_000, 10_000),
    ablation_size=4_000,
    ablation_domain=4_096,
    ablation_instances=512,
    notes=(
        "Scaled-down defaults: dataset sizes and word budgets are reduced by roughly "
        "one order of magnitude relative to the paper so that every figure regenerates "
        "in a few minutes.  The synthetic domain is reduced along with the dataset "
        "sizes so that the result-size-to-self-join-size ratio (which governs SKETCH "
        "accuracy, Section 7.4) stays comparable to the paper's setting; "
        "PAPER_SCALE holds the paper's own sizes."
    ),
)

TINY_SCALE = ExperimentScale(
    name="tiny",
    runs=2,
    synthetic_sizes=(400, 800),
    synthetic_domain=1_024,
    synthetic_budget_words=800,
    guarantee_sizes=(400, 800),
    guarantee_domain=4_096,
    guarantee_epsilon=0.4,
    guarantee_phi=0.05,
    guarantee_max_instances=600,
    reallife_scale=0.02,
    reallife_domain=4_096,
    reallife_budgets=(300, 600, 1_200),
    ablation_size=500,
    ablation_domain=1_024,
    ablation_instances=128,
    notes="Minimal sizes used by the automated test-suite smoke tests.",
)


SCALES: dict[str, ExperimentScale] = {
    scale.name: scale for scale in (PAPER_SCALE, LAPTOP_SCALE, TINY_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name (``paper``, ``laptop`` or ``tiny``)."""
    try:
        return SCALES[name]
    except KeyError as exc:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from exc
