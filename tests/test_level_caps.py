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

import statistics
import time

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.dyadic import (
    DyadicDomain,
    pruned_max_levels,
    range_level_scores,
    range_max_levels,
)
from repro.errors import ServiceError
from repro.exact import range_query_count
from repro.server.protocol import boxes_to_rows
from repro.service import (
    EstimationService,
    EstimatorSpec,
    load_snapshot,
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
        reference.register("rq", family="range", num_instances=8, seed=43,
                           domain=Domain((1024, 1024), max_levels=8))
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
        probes, sides = probe_shape(seed)
        spec = EstimatorSpec.create("range", (1024, 1024), 256, seed=seed)
        assert spec.max_levels == (7, 7)
        results = probe_answers(spec, sides, probes)
        z = np.array([
            (result.instance_values.mean()
             - range_query_count(sides[0], probes[index:index + 1]))
            / (result.instance_values.std(ddof=1)
               / np.sqrt(result.instance_values.size))
            for index, result in enumerate(results)])
        assert np.count_nonzero(np.abs(z) <= 3.0) >= 62, z
        assert abs(z.mean()) <= 0.5, z

    @pytest.mark.parametrize("family", ["rectangle", "containment"])
    def test_joins_are_not_worse(self, family):
        errors = [level_cap_probe(seed, families=(family,))[family]
                  for seed in self.SEEDS]
        assert (statistics.median(e["derived"] for e in errors)
                <= statistics.median(e["uncapped"] for e in errors)), errors


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
        restored = load_snapshot(tmp_path / "old.snap")
        assert restored.spec("rq").to_dict() == self.SPECS["rq"]
        assert self.answers(restored) == (self.PARENT_RQ, self.PARENT_RJ)
        # More data lands in the same, uncapped, counters.
        reference = EstimationService(num_shards=1)
        reference.register("rq", family="range", domain=Domain(self.SIZES),
                           num_instances=8, seed=41)
        more = synthetic_boxes(Domain(self.SIZES), 100, seed=9)
        for target in (restored, reference):
            target.ingest("rq", more, side="data")
        reference.ingest("rq", self.batches()[0][2], side="data")
        query = synthetic_queries(Domain(self.SIZES), 1, seed=6)
        result, expected = (target.estimate("rq", query)
                            for target in (restored, reference))
        assert np.array_equal(result.instance_values, expected.instance_values)
