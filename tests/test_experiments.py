"""Tests for the experiment harness, metrics, reporting, config and CLI."""

import numpy as np
import pytest

from repro.core import space
from repro.core.domain import Domain
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.data import synthetic
from repro.exact.rectangle_join import rectangle_join_count
from repro.experiments import harness
from repro.experiments.config import LAPTOP_SCALE, PAPER_SCALE, TINY_SCALE, get_scale
from repro.experiments.metrics import mean_relative_error, relative_error
from repro.experiments.reporting import FigureResult, format_table
from repro.experiments import figures
from repro import cli


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(0.1)
        assert relative_error(5, 0) == 5

    def test_mean_relative_error(self):
        assert mean_relative_error([90, 110], 100) == pytest.approx(0.1)


class TestConfig:
    def test_get_scale(self):
        assert get_scale("paper") is PAPER_SCALE
        assert get_scale("laptop") is LAPTOP_SCALE
        assert get_scale("tiny") is TINY_SCALE

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_laptop_scale_is_smaller_than_paper(self):
        assert max(LAPTOP_SCALE.synthetic_sizes) < min(PAPER_SCALE.synthetic_sizes)
        assert LAPTOP_SCALE.synthetic_budget_words < PAPER_SCALE.synthetic_budget_words


class TestReporting:
    def test_add_row_validates_arity(self):
        result = FigureResult("f", "title", columns=("a", "b"))
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1, 2, 3)

    def test_column_extraction(self):
        result = FigureResult("f", "title", columns=("a", "b"))
        result.add_row(1, 10.0)
        result.add_row(2, 20.0)
        assert result.column("b") == [10.0, 20.0]

    def test_to_text_contains_everything(self):
        result = FigureResult("f", "My figure", columns=("size", "error"),
                              notes="a note", expected_shape="flat")
        result.add_row(1000, 0.123456)
        text = result.to_text()
        assert "My figure" in text
        assert "0.1235" in text
        assert "expected shape: flat" in text
        assert "a note" in text

    def test_format_table_handles_nan_and_large_values(self):
        text = format_table("t", ("x",), [(float("nan"),), (123456.0,)])
        assert "n/a" in text
        assert "123,456" in text


class TestHarness:
    @pytest.fixture
    def workload(self, rng):
        domain = Domain.square(512, dimension=2)
        left = synthetic.generate_rectangles(400, domain, rng=rng)
        right = synthetic.generate_rectangles(400, domain, rng=rng)
        truth = rectangle_join_count(left, right)
        return domain, left, right, truth

    def test_adaptive_domain_picks_valid_level(self, workload):
        domain, left, right, _ = workload
        tuned = harness.adaptive_domain(left, right, domain)
        assert 0 <= tuned.dyadic(0).max_level <= domain.dyadic(0).height

    def test_one_budget_is_a_sketch_built_at_that_budget(self, workload):
        """Figures 5 and 6 read one budget of the sweep: it must be the error
        of a sketch sized for that budget, estimated on its own, bit for bit."""
        domain, left, right, truth = workload
        error = harness.sketch_error_for_budgets(left, right, domain, truth,
                                                 budgets=(600,), runs=2, seed=1)[600]
        tuned = harness.adaptive_domain(left, right, domain, seed=1)
        estimates = []
        for run in range(2):
            estimator = SpatialJoinEstimator(
                tuned, space.instances_for_budget(600, tuned.dimension),
                seed=1 + 1000 * (run + 1))
            estimator.update("left", left)
            estimator.update("right", right)
            estimates.append(estimator.estimate().estimate)
        assert error == mean_relative_error(estimates, truth)
        assert np.isfinite(error) and error >= 0.0

    def test_sketch_error_for_budgets_returns_all_budgets(self, workload):
        domain, left, right, truth = workload
        budgets = (400, 800)
        errors = harness.sketch_error_for_budgets(left, right, domain, truth,
                                                  budgets=budgets, runs=2, seed=1)
        assert set(errors) == set(budgets)

    def test_histogram_errors_structure(self, workload):
        domain, left, right, truth = workload
        errors = harness.histogram_errors(left, right, domain, truth, budget_words=2000)
        assert {"EH", "GH", "EH_level", "GH_level"} <= set(errors)
        assert errors["GH_level"] >= 0


class TestFigures:
    """Smoke tests at tiny scale: structure and qualitative invariants only."""

    def test_figure5_structure(self):
        result = figures.figure5(TINY_SCALE, seed=2)
        assert result.columns == ("dataset_size", "sketch_error", "eh_error", "gh_error")
        assert len(result.rows) == len(TINY_SCALE.synthetic_sizes)

    def test_figure7_errors_below_guarantee(self):
        result = figures.figure7(TINY_SCALE, seed=2)
        for size, true_error, bound in result.rows:
            assert true_error < bound

    def test_figure8_space_is_constant_across_sizes(self):
        result = figures.figure8(TINY_SCALE, seed=2)
        kwords = result.column("sketch_kwords")
        assert max(kwords) == pytest.approx(min(kwords), rel=0.3)

    def test_figure9_structure(self):
        result = figures.figure9(TINY_SCALE, seed=2)
        assert len(result.rows) == len(TINY_SCALE.reallife_budgets)
        assert all(np.isfinite(row[1]) for row in result.rows)

    def test_ablation_maxlevel_adaptive_choice_marked(self):
        result = figures.ablation_maxlevel(TINY_SCALE, seed=2)
        assert any(row[3] for row in result.rows)

    def test_extension_epsilon_range_rows(self):
        result = figures.extension_epsilon_range(TINY_SCALE, seed=2)
        assert len(result.rows) == 2

    def test_engine_optimizer_rows(self):
        result = figures.engine_optimizer_experiment(TINY_SCALE, seed=2)
        labels = [row[0] for row in result.rows]
        assert any("chosen" in label for label in labels)
        assert any("worst" in label for label in labels)

    def test_engine_optimizer_reports_each_orders_true_c_out(self):
        result = figures.engine_optimizer_experiment(TINY_SCALE, seed=2)
        rows = {row[0].rsplit("(", 1)[1].rstrip(")"): dict(zip(result.columns, row))
                for row in result.rows}
        assert rows["best"]["true_c_out"] <= rows["chosen"]["true_c_out"] \
            <= rows["worst"]["true_c_out"]
        assert rows["best"]["vs_best"] == 1.0
        assert len({row["result_cardinality"] for row in rows.values()}) == 1
        for row in rows.values():
            q_errors = [float(q) for q in row["step_q_errors"].split(" / ")]
            assert len(q_errors) == 2 and min(q_errors) >= 1.0

    def test_figures_registry_is_complete(self):
        expected = {"figure5", "figure6", "figure7", "figure8", "figure9", "figure10",
                    "figure11", "ablation_maxlevel", "ablation_dimensionality",
                    "ablation_update_cost", "extension_epsilon_range",
                    "extension_common_endpoints", "engine_optimizer"}
        assert expected == set(figures.FIGURES)


class TestCli:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure5" in output
        assert "laptop" in output

    def test_run_command_writes_output(self, tmp_path, capsys):
        target = tmp_path / "results.txt"
        code = cli.main(["run", "ablation_update_cost", "--scale", "tiny",
                         "--seed", "3", "--output", str(target)])
        assert code == 0
        assert "Update cost" in capsys.readouterr().out
        assert "Update cost" in target.read_text()

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "figure99"])
