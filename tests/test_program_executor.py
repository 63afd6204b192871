"""Property tests for the compiled-program layer (core/program.py).

The tentpole guarantee of the shared estimator IR: for every one of the
eight estimator families — over random workloads with deletions, sharding
and merged shard views — the program executor must return *exactly* what
the pre-refactor scalar pipeline computed, with the cross-batch letter-sum
cache on **and** off.  The reference implementations below rebuild the
historical scalar math straight from the sketch-bank primitives (counters,
``evaluate``), so the executor is checked against an independent oracle,
not against itself.

Also covered: the mixed-estimator ``estimate_multi`` dispatch (one executor
batch over several estimators, results in request order), reduction
grouping across unequal instance counts, replica expansion, program
introspection (``describe_program``) and executor cache behaviour.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomic import Letter
from repro.core.boosting import BoostingPlan, median_of_means, split_instances
from repro.core.program import (
    ProgramExecutor,
    SketchProgram,
    describe_program,
)
from repro.core.range_query import RangeQueryEstimator
from repro.errors import SketchConfigError
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, EstimatorSpec
from repro.service.specs import compile_programs

from tests.helpers import scalar_letter_sums

#: Family -> (domain sizes, update sides, extra spec options).
FAMILY_CASES = {
    "interval": ((64,), ("left", "right"), {}),
    "rectangle": ((32, 32), ("left", "right"), {}),
    "hyperrect": ((16, 16, 16), ("left", "right"), {}),
    "extended_overlap": ((32, 32), ("left", "right"), {}),
    "common_endpoint": ((32, 32), ("left", "right"), {}),
    "containment": ((32, 32), ("outer", "inner"), {}),
    "epsilon": ((32, 32), ("left", "right"), {"epsilon": 2}),
    "range": ((32, 32), ("data",), {}),
}

PAIRED_FAMILIES = {"interval", "rectangle", "hyperrect", "extended_overlap",
                   "common_endpoint"}

NUM_INSTANCES = 9  # 3 groups of 3 under split_instances


def _boxes(rng: np.random.Generator, count: int, sizes: tuple[int, ...],
           *, degenerate: bool) -> BoxSet:
    if degenerate:
        lows = np.column_stack(
            [rng.integers(0, size, size=count) for size in sizes])
        return BoxSet(lows, lows.copy(), validate=False)
    lows = np.column_stack(
        [rng.integers(0, size - 1, size=count) for size in sizes])
    extents = np.column_stack(
        [rng.integers(1, max(2, size // 3), size=count) for size in sizes])
    highs = np.minimum(lows + extents, np.asarray(sizes, dtype=np.int64) - 1)
    return BoxSet(lows, highs, validate=False)


def reference_scalar_estimate(family: str, view, query=None):
    """The pre-refactor scalar pipeline, rebuilt from bank primitives.

    Returns ``(estimate, instance_values, group_means, left, right)``
    computed with the exact historical accumulation order: per-term counter
    products summed into a zero-initialised value vector, boosted with
    :func:`median_of_means` under the ``split_instances`` default plan —
    or, for a level-split range bank, adjusted by the whole-domain control
    and averaged in one group.
    """
    if family in PAIRED_FAMILIES:
        values = np.zeros(view.num_instances, dtype=np.float64)
        for (left_word, right_word), coefficient in view._combos.items():
            values += coefficient * (view.side_bank("left").counter(left_word)
                                     * view.side_bank("right").counter(right_word))
        left, right = view.left_count, view.right_count
    elif family == "epsilon":
        points = (Letter.LOWER_POINT,) * view.dimension
        cubes = (Letter.INTERVAL,) * view.dimension
        values = (view.side_bank("left").counter(points)
                  * view.side_bank("right").counter(cubes))
        left, right = view.left_count, view.right_count
    elif family == "containment":
        # Z = X_outer * Y_inner over the doubled domain (Appendix B.2).
        boxes = (Letter.INTERVAL,) * (2 * view.dimension)
        points = (Letter.LOWER_POINT,) * (2 * view.dimension)
        values = (view.side_bank("outer").counter(boxes)
                  * view.side_bank("inner").counter(points))
        state = view.state_dict()
        left, right = state["outer_count"], state["inner_count"]
    elif family == "range":
        (query_box, _), bank = view.check_queries(query), view.bank
        values = _reference_range_values(view, query_box)
        left, right = view.count, 1
        if bank.split_levels:
            # The control: the whole sketch domain, E[Z] = N; its error is
            # regressed out of every instance, and all instances average
            # into one group, clipped to [0, N].
            whole = np.asarray(bank.domain.sizes) - 1
            control = _reference_range_values(
                view, BoxSet([[0] * len(whole)], [whole]))
            centred = control - control.mean()
            spread = (centred * centred).sum()
            if spread:
                values = values - ((values * centred).sum() / spread) * (
                    control - view.count)
            estimate, group_means = median_of_means(
                values, BoostingPlan(view.num_instances, 1))
            return (min(max(estimate, 0.0), view.count), values, group_means,
                    left, right)
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown family {family!r}")
    estimate, group_means = median_of_means(
        values, split_instances(view.num_instances))
    return estimate, values, group_means, left, right


def _reference_range_values(view, query_box: BoxSet) -> np.ndarray:
    """A range estimator's per-instance values for one query in sketch
    coordinates, from the counters and scalar letter sums."""
    bank = view.bank
    values = np.zeros(view.num_instances, dtype=np.float64)
    for word in view._words:
        if not bank.split_levels:
            sums = np.ones(view.num_instances)
            for dim, letter in enumerate(view._query_word(word)):
                sums *= scalar_letter_sums(
                    bank, dim, letter, query_box.lows[:, dim],
                    query_box.highs[:, dim])[:, 0]
            values += bank.counter(word) * sums
            continue
        # Each cell times the query's sums on the same levels; where the
        # counter word reads U, the query range ends at v - 1.
        lows = query_box.lows[0]
        highs = query_box.highs[0] - [letter is Letter.UPPER_POINT for letter in word]
        if np.any(highs < lows):
            continue
        sums = np.ones((view.num_instances, 1))
        for dim, letter in enumerate(view._query_word(word)):
            levels = scalar_letter_sums(
                bank, dim, letter, lows[dim:dim + 1], highs[dim:dim + 1],
                by_level=True)[:, 0]
            sums = (sums[:, :, None] * levels[:, None, :]).reshape(
                view.num_instances, -1)
        values += (bank.word_cells(word) * sums).sum(axis=1)
    return values


def _build_service(family: str, case: dict) -> tuple[EstimationService, tuple]:
    sizes, sides, options = FAMILY_CASES[family]
    rng = np.random.default_rng(case["seed"])
    degenerate = family == "epsilon"
    service = EstimationService(num_shards=case["num_shards"],
                                flush_threshold=None)
    spec = EstimatorSpec.create(family, sizes, NUM_INSTANCES,
                                seed=case["seed"] % 1000, **options)
    service.register("est", spec)
    for side in sides:
        inserted = _boxes(rng, case["inserts"], sizes, degenerate=degenerate)
        service.ingest("est", inserted, side=side, kind="insert")
        deletions = int(case["delete_fraction"] * (case["inserts"] - 1))
        if deletions:
            service.ingest("est", inserted[:deletions], side=side,
                           kind="delete")
    service.flush()
    return service, (sizes, rng)


workload = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "num_shards": st.integers(min_value=1, max_value=3),
    "inserts": st.integers(min_value=2, max_value=30),
    "delete_fraction": st.floats(min_value=0.0, max_value=0.75),
    "num_queries": st.integers(min_value=1, max_value=5),
})


@pytest.mark.parametrize("family", sorted(FAMILY_CASES))
@settings(max_examples=8, deadline=None)
@given(case=workload)
def test_executor_matches_prerefactor_scalar(family, case):
    """One run == a rerun on the same executor == the historical scalar
    math, bit for bit."""
    service, (sizes, rng) = _build_service(family, case)
    spec = service.spec("est")
    view = service.merged_view("est")

    if family == "range":
        queries = _boxes(rng, case["num_queries"], sizes, degenerate=False)
        scalar_queries = [queries[j] for j in range(len(queries))]
    else:
        queries = case["num_queries"]
        scalar_queries = [None] * case["num_queries"]

    executor = ProgramExecutor()
    first = executor.run(compile_programs(spec, view, queries))
    rerun = executor.run(compile_programs(spec, view, queries))

    assert len(first) == case["num_queries"]
    for j, scalar_query in enumerate(scalar_queries):
        estimate, values, group_means, left, right = reference_scalar_estimate(
            family, view, scalar_query)
        for result in (first[j], rerun[j]):
            assert result.estimate == estimate
            assert np.array_equal(result.instance_values, values)
            assert np.array_equal(result.group_means, group_means)
            assert result.left_count == left
            assert result.right_count == right

    if family == "range":
        # Intra-batch sharing is structural: at most one kernel call per
        # (dim, letter) pair and run, whatever the batch size.
        letters_in_use = 2 * len(sizes)
        assert executor.stats.kernel_calls <= 2 * letters_in_use


def test_fractional_weights_match_the_scalar_math(rng):
    """One-cell counters need not be integers — ``SketchBank.insert``
    takes any weight — so the executor keeps the historical order there:
    letter sums multiply first, then the counter, bit for bit."""
    sizes, sides, options = FAMILY_CASES["range"]
    spec = replace(EstimatorSpec.create("range", sizes, 64, seed=3, **options),
                   split_levels=False)
    estimator = spec.build()
    estimator.update("data", _boxes(rng, 12, sizes, degenerate=False))
    for weight in (0.3, 1.7, -0.45, 0.1):
        estimator.bank.insert(_boxes(rng, 12, sizes, degenerate=False), weight=weight)
    queries = _boxes(rng, 32, sizes, degenerate=False)
    results = ProgramExecutor().run(compile_programs(spec, estimator, queries))
    for j, result in enumerate(results):
        estimate, values, group_means, _, _ = reference_scalar_estimate(
            "range", estimator, queries[j])
        assert np.array_equal(result.instance_values, values)
        assert result.estimate == estimate


@settings(max_examples=8, deadline=None)
@given(case=workload)
def test_estimate_multi_mixed_families_matches_scalar(case):
    """One estimate_multi dispatch over 4 families == per-request scalars."""
    sizes = (32, 32)
    rng = np.random.default_rng(case["seed"])
    service = EstimationService(num_shards=case["num_shards"],
                                flush_threshold=None)
    service.register("ranges", family="range", domain=sizes,
                     num_instances=NUM_INSTANCES, seed=1)
    service.register("join", family="rectangle", domain=sizes,
                     num_instances=NUM_INSTANCES, seed=2)
    service.register("contain", family="containment", domain=sizes,
                     num_instances=NUM_INSTANCES, seed=3)
    service.register("eps", family="epsilon", domain=sizes,
                     num_instances=NUM_INSTANCES, seed=4, epsilon=2)
    data = _boxes(rng, case["inserts"] + 2, sizes, degenerate=False)
    points = _boxes(rng, case["inserts"] + 2, sizes, degenerate=True)
    service.ingest("ranges", data, side="data")
    service.ingest("join", data, side="left")
    service.ingest("join", data, side="right")
    service.ingest("contain", data, side="outer")
    service.ingest("contain", data, side="inner")
    service.ingest("eps", points, side="left")
    service.ingest("eps", points, side="right")
    service.flush()

    queries = _boxes(rng, case["num_queries"], sizes, degenerate=False)
    requests = []
    for j in range(case["num_queries"]):
        requests.append(("ranges", queries[j]))
        requests.append(("join", None))
        requests.append(("contain", None))
        requests.append(("eps", None))

    before = service.stats.batch_estimates
    multi = service.estimate_multi(requests)
    assert service.stats.batch_estimates == before + 1  # ONE engine dispatch

    assert len(multi) == len(requests)
    for (name, query), result in zip(requests, multi):
        scalar = service.estimate(name, query)
        assert result.estimate == scalar.estimate
        assert np.array_equal(result.instance_values, scalar.instance_values)
        assert np.array_equal(result.group_means, scalar.group_means)
        assert result.left_count == scalar.left_count
        assert result.right_count == scalar.right_count


class TestExecutorUnit:
    def test_reduction_groups_span_unequal_instance_counts(self, rng):
        """One run may mix programs with different (instances, plan) pairs."""
        domain_sizes = (64, 64)
        from repro.core.domain import Domain

        domain = Domain(domain_sizes)
        first = RangeQueryEstimator(domain, 6, seed=1)
        second = RangeQueryEstimator(domain, 10, seed=2)
        boxes = _boxes(rng, 40, domain_sizes, degenerate=False)
        first.update("data", boxes)
        second.update("data", boxes)
        queries = _boxes(rng, 5, domain_sizes, degenerate=False)
        programs = first.lower(queries) + second.lower(queries)
        results = ProgramExecutor().run(programs)
        for j in range(5):
            assert results[j].estimate == first.estimate(queries[j]).estimate
            assert results[5 + j].estimate == \
                second.estimate(queries[j]).estimate

    def test_replicas_expand_to_owned_results(self, rng):
        from repro.core.domain import Domain
        from repro.core.join_hyperrect import SpatialJoinEstimator

        estimator = SpatialJoinEstimator(Domain((32, 32)), 6, seed=3)
        estimator.update("left", _boxes(rng, 10, (32, 32), degenerate=False))
        estimator.update("right", _boxes(rng, 10, (32, 32), degenerate=False))
        results = ProgramExecutor().run(
            estimator.lower(3))
        assert len(results) == 3
        assert results[0].instance_values is not results[1].instance_values
        results[0].instance_values[0] += 1.0
        assert results[1].instance_values[0] != results[0].instance_values[0]

    def test_program_validation(self):
        with pytest.raises(SketchConfigError):
            SketchProgram(terms=(), num_instances=4,
                          plan=split_instances(4), left_count=0)

    def test_describe_program_reports_covers_and_reduction(self, rng):
        from repro.core.domain import Domain

        estimator = RangeQueryEstimator(Domain((64, 64)), 8, seed=1)
        estimator.update("data", _boxes(rng, 20, (64, 64), degenerate=False))
        program = estimator.lower(_boxes(rng, 1, (64, 64),
                                         degenerate=False))[0]
        description = describe_program(program)
        assert description["num_instances"] == 8
        assert len(description["terms"]) == 4  # {I, U}^2 counter words
        assert all(len(term["letter_sums"]) == 2
                   for term in description["terms"])
        assert description["letter_sum_requests"], "deduped requests expected"
        assert all(request["cover_size"] >= 1
                   for request in description["letter_sum_requests"])
        reduction = description["reduction"]
        assert reduction["group_size"] * reduction["num_groups"] == \
            reduction["total_instances"]
        assert reduction["control"] is None

    def test_describe_program_shows_a_split_range_control(self, rng):
        """A level-split range program's control column — the whole sketch
        domain, expectation the net box count — answers no query: the
        description lists it under the reduction, one group of every
        instance."""
        from repro.core.domain import Domain

        estimator = RangeQueryEstimator(Domain((64, 64)), 8, seed=1,
                                        split_levels=True)
        estimator.update("data", _boxes(rng, 20, (64, 64), degenerate=False))
        program = estimator.lower(_boxes(rng, 2, (64, 64), degenerate=False))[0]
        description = describe_program(program)
        assert description["columns"] == 2
        assert {request["query"] for request in
                description["letter_sum_requests"]} == {0, 1}
        reduction = description["reduction"]
        assert (reduction["num_groups"], reduction["group_size"]) == (1, 8)
        control = reduction["control"]
        assert control["expectation"] == 20
        assert {tuple(request["interval"])
                for request in control["letter_sum_requests"]} == {(0, 62), (0, 63)}

    def test_executor_does_not_pin_banks(self, rng):
        """An executor keeps nothing between runs: replaced views stay
        collectable."""
        import gc
        import weakref

        from repro.core.domain import Domain

        estimator = RangeQueryEstimator(Domain((64, 64)), 4, seed=1)
        estimator.update("data", _boxes(rng, 10, (64, 64), degenerate=False))
        executor = ProgramExecutor()
        queries = _boxes(rng, 6, (64, 64), degenerate=False)
        executor.run(estimator.lower(queries))
        bank_ref = weakref.ref(estimator.bank)
        del estimator
        gc.collect()
        assert bank_ref() is None

    @pytest.mark.parametrize("split_levels", [False, True])
    def test_batch_results_own_their_rows(self, rng, split_levels):
        """Each result of a batch owns its arrays: a write stays in its own
        result, and no result views the chunk's shared matrices."""
        from repro.core.domain import Domain

        estimator = RangeQueryEstimator(Domain((64, 64)), 8, seed=1,
                                        split_levels=split_levels)
        estimator.update("data", _boxes(rng, 20, (64, 64), degenerate=False))
        results = ProgramExecutor().run(estimator.lower(
            _boxes(rng, 5, (64, 64), degenerate=False)))
        assert len(results) == 5
        for result in results:
            for array in (result.instance_values, result.group_means):
                assert array.base is None and array.flags.owndata
        before = results[1].instance_values.copy()
        results[0].instance_values[:] += 1.0
        results[0].group_means[:] += 1.0
        assert np.array_equal(results[1].instance_values, before)


# -- delta propagation --------------------------------------------------------

delta_workload = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "num_shards": st.integers(min_value=1, max_value=3),
    "inserts": st.integers(min_value=2, max_value=25),
    "delete_fraction": st.floats(min_value=0.0, max_value=0.75),
    "rounds": st.integers(min_value=2, max_value=4),
})


@pytest.mark.parametrize("family", sorted(FAMILY_CASES))
@settings(max_examples=6, deadline=None)
@given(case=delta_workload)
def test_delta_applied_views_match_scalar_reference(family, case):
    """Delta-refreshed views == the pre-refactor scalar oracle, bit for bit.

    After every flush the service's merged view is refreshed by the
    O(delta) apply path (one fused counter add per bank, xi families
    aliased); each refreshed view must agree with the historical scalar
    pipeline evaluated over an *independently* re-merged store view.
    """
    sizes, sides, options = FAMILY_CASES[family]
    rng = np.random.default_rng(case["seed"])
    degenerate = family == "epsilon"
    service = EstimationService(num_shards=case["num_shards"],
                                flush_threshold=None, delta_propagation=True)
    spec = EstimatorSpec.create(family, sizes, NUM_INSTANCES,
                                seed=case["seed"] % 1000, **options)
    service.register("est", spec)
    query = (_boxes(rng, 1, sizes, degenerate=False)
             if family == "range" else None)
    scalar_query = query[0] if family == "range" else None

    for round_index in range(case["rounds"]):
        for side in sides:
            inserted = _boxes(rng, case["inserts"], sizes,
                              degenerate=degenerate)
            service.ingest("est", inserted, side=side, kind="insert")
            deletions = int(case["delete_fraction"] * (case["inserts"] - 1))
            if deletions and round_index % 2 == 1:
                service.ingest("est", inserted[:deletions], side=side,
                               kind="delete")
        service.flush()
        result = service.estimate("est", query)
        reference_view = service.store.merge_view("est")
        estimate, values, group_means, left, right = reference_scalar_estimate(
            family, reference_view, scalar_query)
        assert result.estimate == estimate
        assert np.array_equal(result.instance_values, values)
        assert np.array_equal(result.group_means, group_means)
        assert result.left_count == left
        assert result.right_count == right

    stats = service.stats
    assert stats.delta_applies == case["rounds"] - 1
    assert stats.rebuilds == 1
    assert stats.delta_applies + stats.rebuilds == stats.cache_misses


def test_delta_applied_views_alias_their_xi_families(rng):
    """A delta-applied view reads its predecessor's xi families — the
    same objects, so the same sign tables — and a full rebuild reads the
    shards' own, drawing none; both answer like a from-scratch merge of
    the new state."""
    sizes = (32, 32)
    queries = _boxes(rng, 6, sizes, degenerate=False)
    for delta_on in (True, False):
        service = EstimationService(num_shards=2, flush_threshold=None,
                                    delta_propagation=delta_on)
        service.register("est", EstimatorSpec.create(
            "range", sizes, NUM_INSTANCES, seed=5))
        service.ingest("est", _boxes(rng, 40, sizes, degenerate=False),
                       side="data")
        service.flush()
        before = service.merged_view("est").bank.xi_banks
        service.ingest("est", _boxes(rng, 40, sizes, degenerate=False),
                       side="data")
        service.flush()
        refreshed_view = service.merged_view("est")
        assert service.stats.delta_applies == int(delta_on)
        shard_families = service.store.shard_estimators("est")[0].bank.xi_banks
        for families in (before, refreshed_view.bank.xi_banks):
            assert [mine is theirs for mine, theirs
                    in zip(families, shard_families)] == [True] * len(sizes)
        refreshed = service.program_executor.run(
            compile_programs(service.spec("est"), refreshed_view, queries))
        fresh = service.store.merge_view("est").estimate_batch(queries)
        for got, want in zip(refreshed, fresh):
            assert got.estimate == want.estimate
            assert np.array_equal(got.instance_values, want.instance_values)
