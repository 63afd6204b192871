"""Tests for the batched estimation engine.

Covers the vectorised kernels layer by layer: batched median-of-means
boosting, ``estimate_batch`` on the estimator families, the service
front-end (``estimate_batch`` and
``estimate_multi``, one path on the service's executor), the optimizer's
batched cardinality probes and the CLI's JSON-lines batch mode.  The
recurring claim is *bit-identity*: the batch path must return exactly what
a loop of scalar calls returns.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core.boosting import (
    BoostingPlan,
    median_of_means,
    median_of_means_batch,
    split_instances,
)
from repro.core.program import ProgramExecutor
from repro.core.range_query import RangeQueryEstimator
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.errors import EstimationError, ServiceError, SketchConfigError
from repro.service import EstimationService
from repro.service.specs import compile_programs

from tests.conftest import random_boxes


class TestMedianOfMeansBatch:
    def test_bit_identical_to_scalar_rows(self, rng):
        matrix = rng.normal(size=(17, 45)) * 1000
        estimates, group_means = median_of_means_batch(matrix)
        for row in range(matrix.shape[0]):
            scalar_estimate, scalar_means = median_of_means(matrix[row])
            assert scalar_estimate == estimates[row]
            assert np.array_equal(scalar_means, group_means[row])

    def test_explicit_plan_and_unused_instances(self, rng):
        matrix = rng.normal(size=(5, 12))
        plan = BoostingPlan(group_size=3, num_groups=3)  # uses 9 of 12
        estimates, group_means = median_of_means_batch(matrix, plan)
        assert group_means.shape == (5, 3)
        for row in range(5):
            scalar_estimate, _ = median_of_means(matrix[row], plan)
            assert scalar_estimate == estimates[row]

    def test_empty_batch(self):
        estimates, group_means = median_of_means_batch(
            np.empty((0, 8)), split_instances(8))
        assert estimates.shape == (0,)
        assert group_means.shape[0] == 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(SketchConfigError):
            median_of_means_batch(np.zeros(5))
        with pytest.raises(SketchConfigError):
            median_of_means_batch(np.zeros((3, 0)))
        with pytest.raises(SketchConfigError):
            median_of_means_batch(np.zeros((3, 4)),
                                  BoostingPlan(group_size=5, num_groups=1))


class TestRangeEstimateBatch:
    @pytest.mark.parametrize("strict", [False, True])
    def test_bit_identical_to_scalar_loop(self, rng, domain_2d, strict):
        estimator = RangeQueryEstimator(domain_2d, 16, seed=5, strict=strict)
        estimator.update("data", random_boxes(rng, 200, 256, 2))
        estimator.update("data", random_boxes(rng, 40, 256, 2), -1.0)
        queries = random_boxes(rng, 30, 256, 2)
        batch = estimator.estimate_batch(queries)
        assert len(batch) == 30
        for j in range(30):
            scalar = estimator.estimate(queries[j])
            assert scalar.estimate == batch[j].estimate
            assert np.array_equal(scalar.instance_values, batch[j].instance_values)
            assert np.array_equal(scalar.group_means, batch[j].group_means)
            assert scalar.left_count == batch[j].left_count

    def test_chunked_batches_are_identical(self, rng, domain_2d, monkeypatch):
        estimator = RangeQueryEstimator(domain_2d, 8, seed=2)
        estimator.update("data", random_boxes(rng, 100, 256, 2))
        queries = random_boxes(rng, 23, 256, 2)
        whole = estimator.estimate_batch(queries)
        monkeypatch.setattr(ProgramExecutor, "CHUNK", 7)
        chunked = estimator.estimate_batch(queries)
        assert [r.estimate for r in whole] == [r.estimate for r in chunked]

    def test_accepts_row_sequences_and_single_query(self, rng, domain_2d):
        estimator = RangeQueryEstimator(domain_2d, 8, seed=2)
        estimator.update("data", random_boxes(rng, 50, 256, 2))
        queries = random_boxes(rng, 4, 256, 2)
        as_rows = estimator.estimate_batch(list(queries))
        as_boxes = estimator.estimate_batch(queries)
        assert [r.estimate for r in as_rows] == [r.estimate for r in as_boxes]
        single = estimator.estimate_batch(queries[0])
        assert single[0].estimate == as_boxes[0].estimate

    def test_empty_and_no_data(self, rng, domain_2d):
        estimator = RangeQueryEstimator(domain_2d, 8, seed=2)
        assert estimator.estimate_batch([]) == []
        with pytest.raises(EstimationError):
            estimator.estimate_batch(random_boxes(rng, 2, 256, 2))


class TestJoinEstimateBatch:
    def test_count_and_none_sequences(self, rng, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, 16, seed=3)
        estimator.update("left", random_boxes(rng, 50, 256, 2))
        estimator.update("right", random_boxes(rng, 50, 256, 2))
        scalar = estimator.estimate()
        for batch in (estimator.estimate_batch(4),
                      estimator.estimate_batch([None] * 4)):
            assert len(batch) == 4
            assert all(result.estimate == scalar.estimate for result in batch)
            # Results own their arrays: mutating one must not leak into
            # the others (matches the scalar-loop contract).
            assert batch[0].instance_values is not batch[1].instance_values
            batch[0].instance_values[0] += 1.0
            assert batch[1].instance_values[0] == scalar.instance_values[0]
        assert estimator.estimate_batch(0) == []
        assert estimator.estimate_batch([]) == []

    def test_rejects_query_entries(self, rng, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, 8, seed=3)
        estimator.update("left", random_boxes(rng, 10, 256, 2))
        with pytest.raises(SketchConfigError):
            estimator.estimate_batch([None, random_boxes(rng, 1, 256, 2)])
        with pytest.raises(SketchConfigError):
            estimator.estimate_batch(-1)

    def test_check_queries_counts_results(self, domain_2d):
        estimator = SpatialJoinEstimator(domain_2d, 8, seed=3)
        assert estimator.check_queries(3) == (3, {})
        assert estimator.check_queries([None, None]) == (2, {})
        count, refused = estimator.check_queries([None, "x", None])
        assert count == 2 and list(refused) == [1]
        assert isinstance(refused[1], SketchConfigError)


class TestServiceEstimateBatch:
    @staticmethod
    def _range_service(rng, **kwargs):
        kwargs.setdefault("num_shards", 3)
        service = EstimationService(**kwargs)
        service.register("ranges", family="range", domain=(256, 256),
                         num_instances=16, seed=9)
        service.ingest("ranges", random_boxes(rng, 300, 256, 2), side="data")
        service.ingest("ranges", random_boxes(rng, 50, 256, 2), side="data",
                       kind="delete")
        return service

    def test_serial_matches_scalar(self, rng):
        service = self._range_service(rng)
        queries = random_boxes(rng, 20, 256, 2)
        batch = service.estimate_batch("ranges", queries)
        for j in range(20):
            scalar = service.estimate("ranges", queries[j])
            assert scalar.estimate == batch[j].estimate
            assert np.array_equal(scalar.instance_values, batch[j].instance_values)

    def test_batch_and_multi_share_the_service_executor(self, rng):
        """Single-name batches used to bypass the service's executor for the
        process-wide default one; each batch is one program per name."""
        service = self._range_service(rng)
        queries = random_boxes(rng, 17, 256, 2)
        before = service.program_executor.stats
        batch = service.estimate_batch("ranges", queries)
        multi = service.estimate_multi(
            [("ranges", queries[j]) for j in range(17)])
        after = service.program_executor.stats
        assert (after.programs, after.results) == \
            (before.programs + 2, before.results + 34)
        assert [r.estimate for r in multi] == [r.estimate for r in batch]
        assert all(np.array_equal(a.instance_values, b.instance_values)
                   and np.array_equal(a.group_means, b.group_means)
                   for a, b in zip(multi, batch))

    def test_queryless_families_and_counts(self, rng):
        service = EstimationService(num_shards=2)
        service.register("join", family="rectangle", domain=(256, 256),
                         num_instances=16, seed=5)
        service.ingest("join", random_boxes(rng, 60, 256, 2), side="left")
        service.ingest("join", random_boxes(rng, 60, 256, 2), side="right")
        scalar = service.estimate("join")
        batch = service.estimate_batch("join", [None] * 5)
        assert len(batch) == 5
        assert all(result.estimate == scalar.estimate for result in batch)
        assert len(service.estimate_batch("join", 3)) == 3
        with pytest.raises(ServiceError):
            service.estimate_batch("join", random_boxes(rng, 2, 256, 2))

    def test_batch_counts_in_stats_and_uses_cache(self, rng):
        service = self._range_service(rng, flush_threshold=None)
        queries = random_boxes(rng, 6, 256, 2)
        service.estimate_batch("ranges", queries)
        assert service.stats.estimates == 6
        service.estimate_batch("ranges", queries)
        assert service.stats.cache_hits >= 1

    def test_store_view_estimate_batch(self, rng):
        service = self._range_service(rng)
        queries = random_boxes(rng, 5, 256, 2)
        via_service = service.estimate_batch("ranges", queries)  # flushes first
        via_store = service.store.merge_view("ranges").estimate_batch(queries)
        assert [r.estimate for r in via_store] == [r.estimate for r in via_service]

    def test_empty_batch(self, rng):
        service = self._range_service(rng)
        assert service.estimate_batch("ranges", []) == []

    def test_batch_helper_validates(self, rng):
        service = self._range_service(rng)
        spec = service.spec("ranges")
        view = service.merged_view("ranges")
        with pytest.raises(ServiceError):
            compile_programs(spec, view, [None])
        with pytest.raises(ServiceError):
            compile_programs(spec, view, 5)


class TestOptimizerBatchedProbes:
    @staticmethod
    def _catalog(rng, domain):
        from repro.engine.catalog import Catalog

        catalog = Catalog(domain)
        for name, count in (("R", 60), ("S", 50), ("T", 40)):
            catalog.create(name, boxes=random_boxes(rng, count, 256, 2))
        catalog.create("EMPTY")
        return catalog

    def test_synopsis_manager_batch_matches_scalar(self, rng, domain_2d):
        from repro.engine.synopses import SynopsisManager

        catalog = self._catalog(rng, domain_2d)
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        relations = [catalog.get(name) for name in ("R", "S", "T", "EMPTY")]
        pairs = [(a, b) for a in relations for b in relations if a.name != b.name]
        batch = synopses.estimated_join_cardinalities(pairs)
        scalar = [value for pair in pairs
                  for value in synopses.estimated_join_cardinalities([pair])]
        assert batch == scalar
        # Pairs with an empty side report zero without probing.
        for (a, b), value in zip(pairs, batch):
            if a.name == "EMPTY" or b.name == "EMPTY":
                assert value == 0.0

    def test_plan_join_unchanged_by_batching(self, rng, domain_2d):
        from repro.engine.optimizer import Optimizer
        from repro.engine.query import JoinQuery
        from repro.engine.synopses import SynopsisManager

        catalog = self._catalog(rng, domain_2d)
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(relations=("R", "S", "T")))
        # The batched plan must equal a plan costed pair by pair, from one
        # selectivity per unordered pair.
        selectivities = {
            (a, b): optimizer.estimated_pair_selectivity(catalog.get(a),
                                                         catalog.get(b))
            for a in ("R", "S", "T") for b in ("R", "S", "T") if a != b
        }
        for (a, b), selectivity in selectivities.items():
            [cardinality] = synopses.estimated_join_cardinalities(
                [(catalog.get(a), catalog.get(b))])
            assert selectivity == selectivities[(b, a)] == min(
                1.0, cardinality / (len(catalog.get(a)) * len(catalog.get(b))))

        def c_out(order):
            total, output = 0.0, float(len(catalog.get(order[0])))
            for index, name in enumerate(order[1:], 1):
                for placed in order[:index]:
                    output *= selectivities[(placed, name)]
                output *= len(catalog.get(name))
                total += output
            return total

        assert plan.estimated_cost == pytest.approx(
            min(c_out(order) for order in itertools.permutations(("R", "S", "T"))))


class TestCliBatchFile:
    def test_jsonl_round_trip(self, rng, tmp_path, capsys):
        from repro.cli import main

        snapshot = tmp_path / "svc.json"
        service = EstimationService(num_shards=2)
        service.register("ranges", family="range", domain=(256, 256),
                         num_instances=16, seed=4)
        service.ingest("ranges", random_boxes(rng, 150, 256, 2), side="data")
        service.save(snapshot)

        queries = random_boxes(rng, 5, 256, 2)
        batch_file = tmp_path / "queries.jsonl"
        with open(batch_file, "w", encoding="utf-8") as handle:
            for j in range(len(queries)):
                row = list(map(int, queries.lows[j])) + list(map(int, queries.highs[j]))
                handle.write(json.dumps(row) + "\n")
        out_file = tmp_path / "results.jsonl"

        assert main(["estimate", "--snapshot", str(snapshot), "--name", "ranges",
                     "--batch-file", str(batch_file),
                     "--batch-output", str(out_file)]) == 0
        lines = [json.loads(line) for line in
                 out_file.read_text(encoding="utf-8").splitlines()]
        assert [line["index"] for line in lines] == list(range(5))
        for j, line in enumerate(lines):
            scalar = service.estimate("ranges", queries[j])
            assert line["estimate"] == scalar.estimate

    def test_batch_longer_than_the_admission_cap(self, rng, tmp_path):
        """The offline path answers through the serving front, whose
        coalescer sheds load beyond ``max_queue`` (1024) queued estimates:
        a longer batch file must be fed in windows, never refused."""
        from repro.cli import main

        snapshot = tmp_path / "svc.snap"
        service = EstimationService(num_shards=2)
        service.register("ranges", family="range", domain=(256, 256),
                         num_instances=8, seed=4)
        service.ingest("ranges", random_boxes(rng, 60, 256, 2), side="data")
        service.save(snapshot)

        queries = random_boxes(rng, 1300, 256, 2)
        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text("".join(
            json.dumps(row) + "\n"
            for row in np.hstack([queries.lows, queries.highs]).tolist()),
            encoding="utf-8")
        out_file = tmp_path / "results.jsonl"
        assert main(["estimate", "--snapshot", str(snapshot), "--name", "ranges",
                     "--batch-file", str(batch_file),
                     "--batch-output", str(out_file)]) == 0
        lines = [json.loads(line) for line in
                 out_file.read_text(encoding="utf-8").splitlines()]
        assert [line["index"] for line in lines] == list(range(1300))
        expected = service.estimate_batch("ranges", queries)
        assert [line["estimate"] for line in lines] == [
            result.estimate for result in expected]

    def test_null_lines_for_queryless_families(self, rng, tmp_path, capsys):
        from repro.cli import main

        snapshot = tmp_path / "svc.json"
        service = EstimationService(num_shards=2)
        service.register("join", family="rectangle", domain=(256, 256),
                         num_instances=16, seed=4)
        service.ingest("join", random_boxes(rng, 40, 256, 2), side="left")
        service.ingest("join", random_boxes(rng, 40, 256, 2), side="right")
        service.save(snapshot)

        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text("null\nnull\n", encoding="utf-8")
        assert main(["estimate", "--snapshot", str(snapshot), "--name", "join",
                     "--batch-file", str(batch_file)]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["estimate"] == service.estimate("join").estimate

    def test_mixed_batch_rejected(self, rng, tmp_path, capsys):
        from repro.cli import main

        snapshot = tmp_path / "svc.json"
        service = EstimationService(num_shards=1)
        service.register("ranges", family="range", domain=(256, 256),
                         num_instances=8, seed=4)
        service.ingest("ranges", random_boxes(rng, 20, 256, 2), side="data")
        service.save(snapshot)
        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text("null\n[0, 0, 5, 5]\n", encoding="utf-8")
        assert main(["estimate", "--snapshot", str(snapshot), "--name", "ranges",
                     "--batch-file", str(batch_file)]) == 1
        assert "error" in capsys.readouterr().err
