"""The default level caps: the rules, what they buy, and what they must not touch.

A spec built from plain sizes (a wire ``register`` without ``max_levels``)
has its level caps written in.  A ``range`` spec stops, per dimension,
where the variance of a range estimate under uniform data and query
intervals is least (:func:`repro.core.dyadic.range_max_levels`); a join
spec stops at the lowest level whose worst-case cover is no larger than
the full tree's (:func:`repro.core.dyadic.pruned_max_levels`).  Pinned
here: both rules, the accuracy the range rule buys on the end-to-end
benchmark's probe shape against ``repro.exact``, and that stored state —
a spec whose ``max_levels`` is ``null`` — keeps meaning *uncapped*, bit
for bit.
"""

import functools
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.dyadic import (
    DyadicDomain,
    pruned_max_levels,
    range_level_scores,
    range_max_levels,
)
from repro.errors import MergeCompatibilityError, ServiceError
from repro.exact import range_query_count
from repro.server.protocol import boxes_to_rows
from repro.service import (
    EstimationService,
    EstimatorSpec,
    synthetic_boxes,
    synthetic_queries,
)
from repro.wal import WalWriter, recover_service

from benchmarks.bench_program_cache import level_cap_probe, probe_answers, probe_shape


def enumerated_range_scores(size: int) -> list[int]:
    """:func:`range_level_scores` by brute force: every interval of
    ``[0, size)`` once as data and once as query, covers from the
    vectorised walks, the variance coefficient from the node counts
    (``p = count / T``, ``E = sum / T``, all over ``T^3``)."""
    lows, highs = np.triu_indices(size)
    total = len(lows)
    scores = []
    for cap in range(DyadicDomain(size).height + 1):
        dyadic = DyadicDomain(size, max_level=cap)
        ids, lengths = dyadic.covers(lows, highs)
        points, _ = dyadic.point_covers(highs)
        used, upper = (np.bincount(nodes, minlength=dyadic.num_nodes).astype(object)
                       for nodes in (ids, points))
        # Cover nodes of each query that its upper point cover holds too.
        owners = np.repeat(np.arange(total), lengths)
        shared = int(np.count_nonzero(
            points.reshape(total, cap + 1)[owners] == ids[:, None]))
        scores.append((upper * upper).sum() * int(lengths.sum())
                      + total * (cap + 1) * (used * used).sum()
                      + 2 * (upper * used).sum() * shared)
    return scores


@functools.lru_cache(maxsize=None)
def probe_z_scores(seed: int) -> np.ndarray:
    """Per probe of probe (b), how many standard errors a default range
    spec's pooled per-instance mean lies from the exact count."""
    probes, sides = probe_shape(seed)
    spec = EstimatorSpec.create("range", (1024, 1024), 256, seed=seed)
    assert spec.max_levels == (7, 7) and spec.split_levels
    results = probe_answers(spec, sides, probes)
    return np.array([
        (result.instance_values.mean()
         - range_query_count(sides[0], probes[index:index + 1]))
        / (result.instance_values.std(ddof=1)
           / np.sqrt(result.instance_values.size))
        for index, result in enumerate(results)])


class TestTheRule:
    def test_derived_from_the_cover_bound(self):
        assert pruned_max_levels((1024, 2048, 64, 4)) == (8, 9, 4, 0)
        assert pruned_max_levels((1, 2, 3, 1000)) == (0, 0, 0, 8)

    @pytest.mark.parametrize("size", [1, 2, 4, 5, 64, 100, 1024, 1 << 16])
    def test_lowest_cap_that_costs_no_cover_size(self, size):
        full = DyadicDomain(size)
        (level,) = pruned_max_levels((size,))
        bounds = [full.with_max_level(m).cover_sum_bound()
                  for m in range(full.height + 1)]
        assert bounds[level] <= bounds[-1]
        assert all(bound > bounds[-1] for bound in bounds[:level])

    def test_only_plain_sizes_take_it(self):
        plain = EstimatorSpec.create("range", (1024, 64), 8)
        assert plain.max_levels == (7, 3)
        assert EstimatorSpec.from_dict(plain.to_dict()) == plain
        # A Domain says what it wants; stored state is what it was.
        assert EstimatorSpec.create("range", Domain((1024, 64)), 8).max_levels is None
        capped = EstimatorSpec.create("range", Domain((1024, 64), max_levels=(3, None)), 8)
        assert capped.max_levels == (3, None)
        stored = {**plain.to_dict(), "max_levels": None}
        assert EstimatorSpec.from_dict(stored).max_levels is None
        del stored["max_levels"]
        assert EstimatorSpec.from_dict(stored).max_levels is None
        # The height is the explicit way to ask for the full tree.
        full = EstimatorSpec.from_dict({**plain.to_dict(), "max_levels": [10, 6]})
        assert full.domain().signature() == Domain((1024, 64)).signature()

    def test_sizes_are_validated_before_the_rule_sees_them(self):
        with pytest.raises(ServiceError, match="invalid domain sizes"):
            EstimatorSpec.create("range", (0,), 8)
        with pytest.raises(ServiceError, match="invalid domain sizes"):
            EstimationService().register("rq", family="range", domain=(64, 0))


class TestTheRangeRule:
    def test_closed_form_equals_enumeration(self):
        for size in range(1, 129):
            assert range_level_scores(size) == enumerated_range_scores(size), size

    def test_caps_per_size(self):
        sizes = (16, 64, 256, 1024, 2048)
        assert range_max_levels(sizes) == (2, 3, 5, 7, 8)
        assert EstimatorSpec.create("range", sizes, 8).max_levels == (2, 3, 5, 7, 8)
        # The joins have no query side: they keep the cover-bound rule.
        for family in ("rectangle", "containment"):
            assert EstimatorSpec.create(family, (1024, 1024), 8).max_levels == (8, 8)

    def test_the_argmin_is_searched(self):
        scores = range_level_scores(1024)
        relative = [float(score / scores[-1]) for score in scores]
        assert min(relative) == relative[7]
        assert relative[8] < relative[6] < relative[9] < 1.0

    def test_closed_form_at_a_billion_coordinates(self):
        start = time.perf_counter()
        spec = EstimatorSpec.create("range", (1 << 30,), 8)
        assert time.perf_counter() - start <= 1.0
        assert spec.max_levels == range_max_levels((1 << 30,))

    def test_stored_explicit_caps_are_not_rederived(self, tmp_path):
        """A WAL written when a range name's default was the cover-bound
        cap carries it explicitly: it replays at [8, 8], not at 7."""
        spec = {"family": "range", "sizes": [1024, 1024], "num_instances": 8,
                "seed": 43, "max_levels": [8, 8], "options": {}}
        boxes = synthetic_boxes(Domain((1024, 1024)), 300, seed=4)
        with WalWriter(tmp_path / "wal", sync="none") as writer:
            writer.append_register("rq", spec)
            writer.append_update("rq", "data", "insert", boxes_to_rows(boxes))
        service, _ = recover_service(tmp_path / "wal", attach=False)
        assert service.spec("rq").to_dict() == spec
        reference = EstimationService(num_shards=1)
        # Stored state keeps one cell per word; a new registration splits.
        reference.register("rq", EstimatorSpec.from_dict(spec))
        reference.ingest("rq", boxes, side="data")
        query = synthetic_queries(Domain((1024, 1024)), 1, seed=6)
        result, expected = (target.estimate("rq", query)
                            for target in (service, reference))
        assert np.array_equal(result.instance_values, expected.instance_values)


class TestAccuracy:
    """ROADMAP probe (b): 4000 ``synthetic_boxes`` over 1024 x 1024, 256
    instances, the benchmark's 64 range probes, against ``repro.exact``.
    Seeded, so the numbers repeat: full tree / default 4.75 / 3.67 / 4.67,
    cover-bound cap (8) / default (7) 1.90 / 1.30 / 1.09.  Each test has a
    deadline of some 30x its measured time (0.2-1.6 s): a probe that slow
    has left the table path, which is a regression too."""

    SEEDS = (11, 101, 202)
    DEADLINE_S = 45.0

    @pytest.fixture(autouse=True)
    def deadline(self):
        start = time.perf_counter()
        yield
        assert time.perf_counter() - start <= self.DEADLINE_S

    def test_derived_caps_cut_the_range_error_threefold(self):
        ratios = {"uncapped": [], "pruned": []}
        for seed in self.SEEDS:
            errors = level_cap_probe(seed, families=("range",))["range"]
            for label, found in ratios.items():
                found.append(errors[label] / errors["derived"])
        assert statistics.median(ratios["uncapped"]) >= 3.0, ratios
        assert statistics.median(ratios["pruned"]) >= 1.15, ratios

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derived_caps_stay_unbiased(self, seed):
        """The pooled per-instance mean lies within 3 standard errors of
        the exact count on at least 62 of the 64 probes."""
        z = probe_z_scores(seed)
        assert np.count_nonzero(np.abs(z) <= 3.0) >= 62, z

    def test_derived_caps_stay_unbiased_on_average(self):
        """The mean z-score, averaged over the seeds, is within 0.5 of 0.

        The probes share their instances, and on level-split counters
        their control-adjusted values correlate (0.03-0.07 on average over
        seeds 1-5, 11, 101, 202; 0.01-0.03 with one cell per word), so one
        seed's mean z spreads with a standard deviation of ~0.3 (-0.46 ..
        +0.32 on those seeds).  Over three seeds it reads 0.04 (+0.32 /
        -0.24 / +0.04); with the query range's ``b == v`` counted twice it
        read 0.76 under the median-of-means reduction."""
        means = [probe_z_scores(seed).mean() for seed in self.SEEDS]
        assert abs(statistics.mean(means)) <= 0.5, means

    @pytest.mark.parametrize("family", ["rectangle", "containment"])
    def test_joins_are_not_worse(self, family):
        errors = [level_cap_probe(seed, families=(family,))[family]
                  for seed in self.SEEDS]
        assert (statistics.median(e["derived"] for e in errors)
                <= statistics.median(e["uncapped"] for e in errors)), errors


class TestLevelSplit:
    """Level-split counters on probe (b): one cell per (word, level pair)
    against the one-cell layout at the same caps (7, 7), 256 instances.
    Under the control-adjusted reduction the per-instance std reads
    5.7-6.4x lower (median over the probes) and the ``rq`` error 4.8-7.5x
    lower over seeds 1-5, 11, 101, 202 (6.02 / 6.37 / 6.18 and 5.64 / 7.51
    / 6.86 on seeds 11 / 101 / 202)."""

    SEEDS = (11, 101, 202)

    @staticmethod
    def layouts(seed):
        probes, sides = probe_shape(seed)
        split = EstimatorSpec.create("range", (1024, 1024), 256, seed=seed)
        one_cell = replace(split, split_levels=False)
        truths = np.array([range_query_count(sides[0], probes[index:index + 1])
                           for index in range(len(probes))])
        return truths, [probe_answers(spec, sides, probes)
                        for spec in (split, one_cell)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_instance_spread_falls_threefold(self, seed):
        _, (split, one_cell) = self.layouts(seed)
        ratios = [cells.instance_values.std() / split_.instance_values.std()
                  for split_, cells in zip(split, one_cell)]
        assert np.median(ratios) >= 3.0, ratios

    def test_range_error_falls_two_and_a_half_fold(self):
        ratios = []
        for seed in self.SEEDS:
            truths, answers = self.layouts(seed)
            split, one_cell = (np.median(np.abs(
                np.array([result.estimate for result in results]) - truths) / truths)
                for results in answers)
            ratios.append(one_cell / split)
        assert statistics.median(ratios) >= 2.5, ratios

    def test_every_new_1d_or_2d_range_spec_splits(self):
        spec = EstimatorSpec.create("range", (1024, 1024), 8)
        assert spec.split_levels and spec.to_dict()["split_levels"] is True
        assert EstimatorSpec.from_dict(spec.to_dict()) == spec
        assert EstimatorSpec.create("range", (64,), 8).split_levels
        # However the domain is written: the layout follows family and dimension.
        assert EstimatorSpec.create("range", Domain((1024, 1024)), 8).split_levels
        assert EstimatorSpec.create(
            "range", Domain((1024, 1024), max_levels=8), 8).split_levels
        for one_cell in (EstimatorSpec.create("range", (64, 64, 64), 8),
                         EstimatorSpec.create("rectangle", (1024, 1024), 8),
                         EstimatorSpec.create("rectangle", Domain((64, 64)), 8)):
            assert not one_cell.split_levels
            assert "split_levels" not in one_cell.to_dict()
        stored = {key: value for key, value in spec.to_dict().items()
                  if key != "split_levels"}
        assert not EstimatorSpec.from_dict(stored).split_levels
        with pytest.raises(ServiceError, match="level-split"):
            replace(EstimatorSpec.create("rectangle", (64, 64), 8), split_levels=True)

    def test_split_and_one_cell_do_not_merge(self):
        spec = EstimatorSpec.create("range", (256, 256), 8, seed=3)
        split, one_cell = spec.build(), replace(spec, split_levels=False).build()
        boxes = synthetic_boxes(Domain((256, 256)), 50, seed=1)
        for estimator in (split, one_cell):
            estimator.update("data", boxes)
        with pytest.raises(MergeCompatibilityError, match="level-split"):
            split.merge(one_cell)
        with pytest.raises(MergeCompatibilityError):
            one_cell.load_state_dict(split.state_dict())


class TestStoredStateStaysUncapped:
    """A snapshot or WAL written before the rule existed carries
    ``max_levels: null``; it restores and replays over the full tree.  The
    pinned values were computed by the parent build (PR 22)."""

    SIZES = (64, 64)
    SPECS = {
        "rq": {"family": "range", "sizes": [64, 64], "num_instances": 8,
               "seed": 41, "max_levels": None, "options": {}},
        "rj": {"family": "rectangle", "sizes": [64, 64], "num_instances": 8,
               "seed": 42, "max_levels": None, "options": {}},
    }
    PARENT_RQ = [-1019.0, -178.0, -2182.0, -296.0]
    PARENT_RJ = 1334.5

    def batches(self):
        domain = Domain(self.SIZES)
        return [("rq", "data", synthetic_boxes(domain, 300, seed=1)),
                ("rj", "left", synthetic_boxes(domain, 300, seed=2)),
                ("rj", "right", synthetic_boxes(domain, 300, seed=3))]

    def answers(self, service):
        queries = synthetic_queries(Domain(self.SIZES), 4, seed=5)
        return ([service.estimate("rq", queries[index]).estimate
                 for index in range(4)], service.estimate("rj").estimate)

    def written_wal(self, wal_dir):
        with WalWriter(wal_dir, sync="none") as writer:
            for name, spec in self.SPECS.items():
                writer.append_register(name, spec)
            for name, side, boxes in self.batches():
                writer.append_update(name, side, "insert", boxes_to_rows(boxes))

    def test_wal_replays_uncapped(self, tmp_path):
        self.written_wal(tmp_path / "wal")
        service, report = recover_service(tmp_path / "wal", attach=False)
        assert report.replayed_records == 5
        for name in self.SPECS:
            assert service.spec(name).max_levels is None
            assert service.spec(name).domain().signature() == Domain(
                self.SIZES).signature()
        assert self.answers(service) == (self.PARENT_RQ, self.PARENT_RJ)

    def test_snapshot_restores_uncapped_and_keeps_ingesting(self, tmp_path):
        self.written_wal(tmp_path / "wal")
        service, _ = recover_service(tmp_path / "wal", attach=False)
        service.save(tmp_path / "old.snap")
        restored = EstimationService.load(tmp_path / "old.snap")
        assert restored.spec("rq").to_dict() == self.SPECS["rq"]
        assert self.answers(restored) == (self.PARENT_RQ, self.PARENT_RJ)
        # More data lands in the same, uncapped, counters.
        reference = EstimationService(num_shards=1)
        reference.register("rq", EstimatorSpec.from_dict(self.SPECS["rq"]))
        more = synthetic_boxes(Domain(self.SIZES), 100, seed=9)
        for target in (restored, reference):
            target.ingest("rq", more, side="data")
        reference.ingest("rq", self.batches()[0][2], side="data")
        query = synthetic_queries(Domain(self.SIZES), 1, seed=6)
        result, expected = (target.estimate("rq", query)
                            for target in (restored, reference))
        assert np.array_equal(result.instance_values, expected.instance_values)
