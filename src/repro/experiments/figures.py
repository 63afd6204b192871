"""Per-figure experiment definitions (Section 7 of the paper).

Every public function regenerates one figure (or one ablation of a design
choice the paper argues for in Sections 5-6) and returns a
:class:`~repro.experiments.reporting.FigureResult` whose rows are the data
series the paper plots.  Absolute numbers differ from the paper (different
hardware, simulated real-life data, scaled-down sizes) but the *shape* —
which technique wins, how errors move with dataset size and summary space —
is what each result's ``expected_shape`` states and what the benchmarks
assert.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.core import space
from repro.core.adaptive import choose_max_level
from repro.core.boosting import plan_boosting
from repro.core.domain import Domain
from repro.core.dyadic import range_max_levels
from repro.core.epsilon_join import EpsilonJoinEstimator
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.core.range_query import RangeQueryEstimator
from repro.core.selfjoin import dataset_self_join_size
from repro.data import reallife, synthetic
from repro.engine.catalog import Catalog
from repro.engine.optimizer import Optimizer
from repro.engine.query import JoinQuery
from repro.engine.synopses import SynopsisManager
from repro.exact.epsilon_join import epsilon_join_count
from repro.exact.interval_join import interval_join_count
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import rectangle_join_count
from repro.experiments.config import ExperimentScale, LAPTOP_SCALE
from repro.experiments.harness import (
    adaptive_domain,
    histogram_errors,
    sketch_error_for_budgets,
)
from repro.experiments.metrics import mean_relative_error, relative_error
from repro.experiments.reporting import FigureResult
from repro.geometry.boxset import BoxSet


# ---------------------------------------------------------------------------
# Figures 5 and 6: relative error vs dataset size for synthetic 2-d joins.
# ---------------------------------------------------------------------------

def _synthetic_join_figure(figure_id: str, skew: float, scale: ExperimentScale,
                           seed: int) -> FigureResult:
    domain = Domain.square(scale.synthetic_domain, dimension=2)
    result = FigureResult(
        figure_id=figure_id,
        title=(f"Relative error vs dataset size (2-d join, Zipf z={skew:g}, "
               f"{scale.synthetic_budget_words} words per dataset)"),
        columns=("dataset_size", "sketch_error", "eh_error", "gh_error"),
        expected_shape=(
            "errors roughly flat in dataset size; SKETCH and GH comparable and below EH "
            "for uniform data (Figure 5); all three close together for skewed data with "
            "SKETCH marginally best (Figure 6)"
        ),
        notes=f"scale={scale.name}, {scale.runs} sketch runs per point",
    )
    for index, size in enumerate(scale.synthetic_sizes):
        rng = np.random.default_rng(seed + 17 * index)
        left = synthetic.generate_rectangles(size, domain, skew=skew, rng=rng)
        right = synthetic.generate_rectangles(size, domain, skew=skew, rng=rng)
        truth = rectangle_join_count(left, right)
        budget = scale.synthetic_budget_words
        sketch_error = sketch_error_for_budgets(
            left, right, domain, truth, budgets=(budget,),
            runs=scale.runs, seed=seed + index,
        )[budget]
        baseline = histogram_errors(left, right, domain, truth,
                                    budget_words=scale.synthetic_budget_words)
        result.add_row(size, sketch_error, baseline["EH"], baseline["GH"])
    return result


def figure5(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 5: uniform data (Zipf z = 0)."""
    return _synthetic_join_figure("figure5", 0.0, scale, seed)


def figure6(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 6: skewed data (Zipf z = 1)."""
    return _synthetic_join_figure("figure6", 1.0, scale, seed + 1)


# ---------------------------------------------------------------------------
# Figures 7 and 8: error guarantee and space requirement for 1-d joins.
# ---------------------------------------------------------------------------

def _guarantee_experiment(scale: ExperimentScale, seed: int):
    """Shared computation of Figures 7 and 8 (they use the same runs)."""
    rows = []
    runs = min(scale.runs, 2)
    for index, size in enumerate(scale.guarantee_sizes):
        rng = np.random.default_rng(seed + 31 * index)
        base_domain = Domain(scale.guarantee_domain)
        left = synthetic.generate_intervals(size, base_domain, rng=rng)
        right = synthetic.generate_intervals(size, base_domain, rng=rng)
        truth = interval_join_count(left, right)
        domain = adaptive_domain(left, right, base_domain, seed=seed + index)

        sj_left = dataset_self_join_size(left, domain)
        sj_right = dataset_self_join_size(right, domain)
        plan = plan_boosting(scale.guarantee_epsilon, scale.guarantee_phi,
                             0.5 * sj_left * sj_right, float(truth),
                             max_instances=scale.guarantee_max_instances)

        errors = []
        for run in range(runs):
            estimator = SpatialJoinEstimator(domain, plan.total_instances,
                                             seed=seed + 997 * (run + 1), boosting=plan)
            estimator.update("left", left)
            estimator.update("right", right)
            errors.append(relative_error(estimator.estimate().estimate, truth))
        words = space.sketch_words(1, plan.total_instances)
        rows.append({
            "size": size,
            "true_error": float(np.mean(errors)),
            "guaranteed": scale.guarantee_epsilon,
            "instances": plan.total_instances,
            "kwords": words / 1000.0,
            "capped": plan.total_instances >= scale.guarantee_max_instances,
        })
    return rows


def figure7(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 7: actual relative error vs the guaranteed bound (1-d interval join)."""
    result = FigureResult(
        figure_id="figure7",
        title=(f"Actual relative error vs guaranteed bound "
               f"(epsilon={scale.guarantee_epsilon}, phi={scale.guarantee_phi}, 1-d)"),
        columns=("dataset_size", "true_error", "guaranteed_error_bound"),
        expected_shape="the measured error stays well below the guaranteed bound for every size",
        notes="sketch sized by Theorem 1 with the exact self-join sizes and the true "
              "result as the sanity lower bound",
    )
    for row in _guarantee_experiment(scale, seed):
        result.add_row(row["size"], row["true_error"], row["guaranteed"])
    return result


def figure8(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 8: sketch space requirement vs dataset size for a fixed guarantee."""
    result = FigureResult(
        figure_id="figure8",
        title=(f"Sketch space requirement vs dataset size "
               f"(epsilon={scale.guarantee_epsilon}, phi={scale.guarantee_phi}, 1-d)"),
        columns=("dataset_size", "sketch_kwords", "instances", "fraction_of_dataset"),
        expected_shape="space stays roughly constant as the dataset grows, so the sketch "
                       "shrinks as a fraction of the dataset size",
        notes="words follow the accounting of repro.core.space",
    )
    for row in _guarantee_experiment(scale, seed):
        dataset_words = space.dataset_storage_words(row["size"], 1)
        result.add_row(row["size"], row["kwords"], row["instances"],
                       1000.0 * row["kwords"] / dataset_words)
    return result


# ---------------------------------------------------------------------------
# Figures 9-11: real-life (simulated) joins, error vs allocated space.
# ---------------------------------------------------------------------------

def _reallife_figure(figure_id: str, left_name: str, right_name: str,
                     scale: ExperimentScale, seed: int) -> FigureResult:
    domain = Domain.square(scale.reallife_domain, dimension=2)
    left, right, domain = reallife.load_real_life_pair(
        left_name, right_name, domain=domain, scale=scale.reallife_scale, seed=seed)
    truth = rectangle_join_count(left, right)

    result = FigureResult(
        figure_id=figure_id,
        title=(f"Relative error vs space for {left_name} join {right_name} "
               f"(simulated, scale {scale.reallife_scale:g}: "
               f"|R|={len(left)}, |S|={len(right)}, truth={truth})"),
        columns=("space_kwords", "sketch_error", "eh_error", "gh_error"),
        expected_shape=(
            "SKETCH error declines steadily with more space; EH can be good at small "
            "space but behaves unpredictably (non-monotonically) as the grid is refined; "
            "GH needs more space and is mostly slightly worse than SKETCH"
        ),
        notes=f"scale={scale.name}, {scale.runs} sketch runs per budget",
    )

    sketch_errors = sketch_error_for_budgets(
        left, right, domain, truth, budgets=scale.reallife_budgets,
        runs=scale.runs, seed=seed + 7,
    )
    for budget in scale.reallife_budgets:
        baseline = histogram_errors(left, right, domain, truth, budget_words=budget)
        result.add_row(budget / 1000.0, sketch_errors[budget],
                       baseline["EH"], baseline["GH"])
    return result


def figure9(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 9: LANDC join LANDO."""
    return _reallife_figure("figure9", "LANDC", "LANDO", scale, seed)


def figure10(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 10: LANDC join SOIL."""
    return _reallife_figure("figure10", "LANDC", "SOIL", scale, seed)


def figure11(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Figure 11: LANDO join SOIL."""
    return _reallife_figure("figure11", "LANDO", "SOIL", scale, seed)


# ---------------------------------------------------------------------------
# Ablations and extensions: the design choices of Sections 5-6 (and the
# engine's join ordering) measured on their own.
# ---------------------------------------------------------------------------

def ablation_maxlevel(scale: ExperimentScale = LAPTOP_SCALE, *, seed: int = 0) -> FigureResult:
    """Section 6.5: the effect of the maximum dyadic level on accuracy.

    Uses a dataset of mostly short intervals, where the full dyadic sketch
    pays for coarse levels it never needs.
    """
    base_domain = Domain(scale.ablation_domain)
    rng = np.random.default_rng(seed)
    short = max(4.0, np.sqrt(scale.ablation_domain) / 4.0)
    left = synthetic.generate_intervals(scale.ablation_size, base_domain,
                                        mean_length=short, rng=rng)
    right = synthetic.generate_intervals(scale.ablation_size, base_domain,
                                         mean_length=short, rng=rng)
    truth = interval_join_count(left, right)
    sample = left.sample(min(300, len(left)), rng).concat(
        right.sample(min(300, len(right)), rng))
    chosen = choose_max_level(sample, base_domain)

    result = FigureResult(
        figure_id="ablation_maxlevel",
        title=f"maxLevel ablation (1-d join of short intervals, truth={truth})",
        columns=("max_level", "self_join_size", "mean_error", "is_adaptive_choice"),
        expected_shape="the adaptively chosen level minimises the self-join size and achieves "
                       "an error at or near the best of the swept levels; very low and very "
                       "high levels do worse",
        notes=f"{scale.runs} runs, {scale.ablation_instances} instances per run",
    )
    height = base_domain.dyadic(0).height
    candidate_levels = sorted({0, 2, chosen, min(height, chosen + 3), height})
    for level in candidate_levels:
        domain = base_domain.with_max_level(level)
        sj = dataset_self_join_size(left, domain) + dataset_self_join_size(right, domain)
        errors = []
        for run in range(scale.runs):
            estimator = SpatialJoinEstimator(domain, scale.ablation_instances,
                                             seed=seed + 71 * (run + 1))
            estimator.update("left", left)
            estimator.update("right", right)
            errors.append(relative_error(estimator.estimate().estimate, truth))
        result.add_row(level, sj, float(np.mean(errors)), level == chosen)
    return result


def ablation_dimensionality(scale: ExperimentScale = LAPTOP_SCALE, *,
                            seed: int = 0) -> FigureResult:
    """Section 6.1: accuracy and cost as dimensionality grows (fixed word budget)."""
    result = FigureResult(
        figure_id="ablation_dimensionality",
        title="Dimensionality ablation (fixed word budget per dataset)",
        columns=("dimension", "instances", "mean_error", "counters_per_instance"),
        expected_shape="for the same word budget the number of affordable instances shrinks "
                       "like 2^-d and the error grows with the dimensionality (the curse of "
                       "dimensionality discussed in Section 6.1)",
        notes=f"budget {scale.synthetic_budget_words} words, {scale.runs} runs",
    )
    size = max(400, scale.ablation_size // 4)
    domain_size = max(256, scale.ablation_domain // 4)
    for dimension in (1, 2, 3):
        domain = Domain.square(domain_size, dimension=dimension)
        rng = np.random.default_rng(seed + dimension)
        left = synthetic.generate_rectangles(size, domain, rng=rng)
        right = synthetic.generate_rectangles(size, domain, rng=rng)
        truth = rectangle_join_count(left, right)
        if truth == 0:
            continue
        tuned = adaptive_domain(left, right, domain, seed=seed)
        instances = space.instances_for_budget(scale.synthetic_budget_words, dimension)
        errors = []
        for run in range(scale.runs):
            estimator = SpatialJoinEstimator(tuned, instances, seed=seed + 13 * (run + 1))
            estimator.update("left", left)
            estimator.update("right", right)
            errors.append(relative_error(estimator.estimate().estimate, truth))
        result.add_row(dimension, instances, float(np.mean(errors)), 2 ** dimension)
    return result


def ablation_update_cost(scale: ExperimentScale = LAPTOP_SCALE, *,
                         seed: int = 0) -> FigureResult:
    """Dyadic vs standard sketches: per-update cover size and wall-clock cost."""
    result = FigureResult(
        figure_id="ablation_update_cost",
        title="Update cost: dyadic vs standard (maxLevel = 0) sketches",
        columns=("domain_size", "dyadic_ids_per_update", "standard_ids_per_update",
                 "dyadic_ms_per_object", "standard_ms_per_object"),
        expected_shape="standard-sketch update cost grows linearly with the object extent "
                       "(hence with the domain), dyadic cost only logarithmically",
        notes="one atomic-sketch instance, interval data with extent ~ sqrt(domain)",
    )
    count = min(500, scale.ablation_size)
    for exponent in (8, 10, 12):
        domain_size = 2 ** exponent
        base_domain = Domain(domain_size)
        rng = np.random.default_rng(seed + exponent)
        data = synthetic.generate_intervals(count, base_domain, rng=rng)

        measurements = {}
        for label, domain in (("dyadic", base_domain),
                              ("standard", base_domain.with_max_level(0))):
            dyadic = domain.dyadic(0)
            _, lengths = dyadic.covers(data.lows[:, 0], data.highs[:, 0])
            _, point_lengths = dyadic.point_covers(data.lows[:, 0])
            ids_per_update = float(np.mean(lengths) + 2 * np.mean(point_lengths))
            estimator = SpatialJoinEstimator(domain, 16, seed=seed,
                                             endpoint_policy="assume_distinct")
            start = time.perf_counter()
            estimator.update("left", data)
            elapsed_ms = 1000.0 * (time.perf_counter() - start) / count
            measurements[label] = (ids_per_update, elapsed_ms)
        result.add_row(domain_size, measurements["dyadic"][0], measurements["standard"][0],
                       measurements["dyadic"][1], measurements["standard"][1])
    return result


def extension_epsilon_range(scale: ExperimentScale = LAPTOP_SCALE, *,
                            seed: int = 0) -> FigureResult:
    """Sections 6.3 / 6.4: epsilon-join and range-query estimation accuracy.

    The epsilon-join estimator restricts the dyadic levels to roughly the
    epsilon-cube size (the Section 6.5 heuristic applied to this query type)
    and uses twice the ablation instance budget: the paper's Lemma 8 variance
    bound shows this query family needs noticeably more instances per unit of
    accuracy than the plain spatial join.
    """
    instances = 2 * scale.ablation_instances
    result = FigureResult(
        figure_id="extension_epsilon_range",
        title="Epsilon-join and range-query estimators",
        columns=("query", "truth", "mean_estimate", "mean_error"),
        expected_shape="both estimators are unbiased; mean errors well under 1.0 at the "
                       "configured instance counts",
        notes=f"{scale.runs} runs, {instances} instances",
    )
    domain = Domain.square(scale.ablation_domain, dimension=2)
    rng = np.random.default_rng(seed)
    count = max(500, scale.ablation_size // 2)
    left_points = synthetic.generate_points(count, domain, rng=rng)
    right_points = synthetic.generate_points(count, domain, rng=rng)
    epsilon = max(4, scale.ablation_domain // 32)
    truth_eps = epsilon_join_count(left_points, right_points, epsilon)

    cube_level = max(1, int(np.ceil(np.log2(2 * epsilon))))
    eps_domain = domain.with_max_level(min(cube_level, domain.dyadic(0).height))
    estimates = []
    for run in range(scale.runs):
        estimator = EpsilonJoinEstimator(eps_domain, epsilon, instances,
                                         seed=seed + 29 * (run + 1))
        estimator.update("left", left_points)
        estimator.update("right", right_points)
        estimates.append(estimator.estimate().estimate)
    result.add_row(f"epsilon-join (eps={epsilon})", truth_eps, float(np.mean(estimates)),
                   mean_relative_error(estimates, truth_eps) if truth_eps else 0.0)

    rectangles = synthetic.generate_rectangles(max(1000, scale.ablation_size), domain,
                                               rng=rng)
    quarter = scale.ablation_domain // 4
    query = BoxSet((quarter, quarter), (3 * quarter - 1, 3 * quarter - 1))
    truth_range = range_query_count(rectangles, query)
    # The range rule weighs the query's own cover against the data's;
    # choose_max_level scores a join's self-join size only.
    range_domain = Domain(domain.requested_sizes,
                          max_levels=range_max_levels(domain.requested_sizes))
    estimates = []
    for run in range(scale.runs):
        estimator = RangeQueryEstimator(range_domain, instances,
                                        seed=seed + 31 * (run + 1))
        estimator.update("data", rectangles)
        estimates.append(estimator.estimate(query).estimate)
    result.add_row("range query (half-window)", truth_range, float(np.mean(estimates)),
                   mean_relative_error(estimates, truth_range) if truth_range else 0.0)
    return result


def extension_common_endpoints(scale: ExperimentScale = LAPTOP_SCALE, *,
                               seed: int = 0) -> FigureResult:
    """Section 5.2 / Appendix C: handling of shared endpoint coordinates."""
    result = FigureResult(
        figure_id="extension_common_endpoints",
        title="Common-endpoint handling (snapped interval data)",
        columns=("endpoint_policy", "truth", "mean_estimate", "mean_error"),
        expected_shape="'transform' and 'explicit' agree with the truth in expectation; "
                       "'assume_distinct' over-counts because shared endpoints violate "
                       "Assumption 1",
        notes=f"{scale.runs} runs, {scale.ablation_instances} instances; every coordinate "
              "snapped to a coarse grid so shared endpoints are frequent",
    )
    base_domain = Domain(scale.ablation_domain)
    rng = np.random.default_rng(seed)
    raw_left = synthetic.generate_intervals(scale.ablation_size, base_domain, rng=rng)
    raw_right = synthetic.generate_intervals(scale.ablation_size, base_domain, rng=rng)
    pitch = max(8, scale.ablation_domain // 128)

    def snap(boxes: BoxSet) -> BoxSet:
        lows = (boxes.lows // pitch) * pitch
        highs = np.maximum(((boxes.highs // pitch) + 1) * pitch - 1, lows + pitch - 1)
        highs = np.minimum(highs, scale.ablation_domain - 1)
        return BoxSet(lows, highs)

    left = snap(raw_left)
    right = snap(raw_right)
    truth = interval_join_count(left, right)
    domain = adaptive_domain(left, right, base_domain, seed=seed)

    for policy in ("transform", "explicit", "assume_distinct"):
        estimates = []
        for run in range(scale.runs):
            estimator = SpatialJoinEstimator(domain, scale.ablation_instances,
                                             seed=seed + 41 * (run + 1),
                                             endpoint_policy=policy)
            estimator.update("left", left)
            estimator.update("right", right)
            estimates.append(estimator.estimate().estimate)
        result.add_row(policy, truth, float(np.mean(estimates)),
                       mean_relative_error(estimates, truth))
    return result


def engine_optimizer_experiment(scale: ExperimentScale = LAPTOP_SCALE, *,
                                seed: int = 0) -> FigureResult:
    """Plan quality: sketch-driven join ordering vs ordering by size alone
    (the two smallest relations first) and the best and worst orders."""
    result = FigureResult(
        figure_id="engine_optimizer",
        title="Optimizer plan quality for a 3-way spatial join",
        columns=("plan", "estimated_c_out", "true_c_out", "vs_best",
                 "result_cardinality", "step_q_errors"),
        expected_shape="relation sizes decide here: the counts-only order (the two "
                       "smallest relations first) is as good as the best one; the "
                       "pair estimates carry little signal at this budget (several "
                       "clamp to 0, so a first step looks free) and the "
                       "sketch-driven order can be the worst one",
        notes=f"scale={scale.name}, seed={seed}; C_out = sum of intermediate "
              f"cardinalities of a left-deep order; vs_best = true C_out / the "
              f"best order's; q-error = max(est/true, true/est) per step",
    )
    domain = Domain.square(max(1024, scale.ablation_domain // 4), dimension=2)
    rng = np.random.default_rng(seed)
    catalog = Catalog(domain)
    sizes = {"parcels": max(400, scale.ablation_size // 4),
             "zones": max(200, scale.ablation_size // 8),
             "sensors": max(100, scale.ablation_size // 16)}
    skews = {"parcels": 0.0, "zones": 0.8, "sensors": 0.4}
    for name, size in sizes.items():
        boxes = synthetic.generate_rectangles(size, domain, skew=skews[name], rng=rng)
        catalog.create(name, boxes=boxes)
    synopses = SynopsisManager(domain.with_max_level(domain.dyadic(0).height // 2),
                               num_instances=min(256, scale.ablation_instances), seed=seed)
    optimizer = Optimizer(catalog, synopses)
    query = JoinQuery(relations=("parcels", "zones", "sensors"))

    chosen = optimizer.execute_plan(optimizer.plan_join(query))
    executions = [optimizer.execute_plan(optimizer.cost_order(order))
                  for order in itertools.permutations(query.relations)]
    by_size = tuple(sorted(query.relations, key=sizes.__getitem__))
    counts_only = next(execution for execution in executions
                       if execution.plan.order == by_size)
    best = min(executions, key=lambda execution: execution.cost)
    worst = max(executions, key=lambda execution: execution.cost)
    for label, execution in (("chosen", chosen), ("counts-only", counts_only),
                             ("best", best), ("worst", worst)):
        result.add_row(f"{' > '.join(execution.plan.order)} ({label})",
                       execution.plan.estimated_cost, execution.cost,
                       execution.cost / max(best.cost, 1), execution.cardinality,
                       " / ".join(f"{q:.2f}" for q in execution.q_errors()))
    return result


#: All figure generators keyed by their public name (used by the CLI).
FIGURES = {
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "ablation_maxlevel": ablation_maxlevel,
    "ablation_dimensionality": ablation_dimensionality,
    "ablation_update_cost": ablation_update_cost,
    "extension_epsilon_range": extension_epsilon_range,
    "extension_common_endpoints": extension_common_endpoints,
    "engine_optimizer": engine_optimizer_experiment,
}
