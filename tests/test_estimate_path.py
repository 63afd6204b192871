"""One estimate path: every way to ask for an estimate checks the request
once and answers it the same way.

``SketchEstimator.check_queries`` is the only place a query is judged and
``SketchEstimator.lower`` the only compile; the estimator's scalar and
batch calls, the service's three verbs, a router's reduce over worker
partials and a request on the wire all go through them.  So, for every
family, a good request gets bit-identical answers on every path, and a bad
one gets the same verdict on every path before any kernel runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import InProcessClient
from repro.cluster.partial import reduce_partials
from repro.errors import QueryError, ServerError, ServiceError
from repro.geometry.boxset import BoxSet
from repro.server import ServerConfig, SketchServer, protocol
from repro.service import EstimationService, EstimatorSpec

from tests.conftest import random_boxes
from tests.test_estimator_contract import FAMILY_SPECS, side_data

SPECS = {family: EstimatorSpec.create(family, sizes, 16, seed=7, **options)
         for family, sizes, options in FAMILY_SPECS}


def served(spec: EstimatorSpec, rng, workers: int = 2):
    """A sharded service over the whole stream, plus each worker's state."""
    service = EstimationService(num_shards=2, flush_threshold=None)
    service.register("est", spec)
    states = []
    for _ in range(workers):
        worker = spec.build()
        for side in spec.info.sides:
            data = side_data(rng, spec, 40)
            worker.update(side, data)
            service.ingest("est", data, side=side)
        states.append(worker.state_dict())
    service.flush()
    return service, states


def wire(service: EstimationService) -> InProcessClient:
    """A client of the request front ``serve`` and ``--snapshot`` use."""
    return InProcessClient(SketchServer(service, config=ServerConfig(max_delay=0.0)))


@pytest.mark.parametrize("family", sorted(SPECS))
def test_every_path_answers_alike(rng, family):
    spec = SPECS[family]
    service, states = served(spec, rng)
    if spec.info.queryable:
        queries = random_boxes(rng, 5, spec.sizes[0], spec.dimension)
        rows = [queries[j:j + 1] for j in range(len(queries))]
    else:
        queries, rows = 5, [None] * 5
    view = service.merged_view("est")
    expected = view.estimate_batch(queries)
    paths = {
        "estimator scalar": [view.estimate(row) for row in rows],
        "service scalar": [service.estimate("est", row) for row in rows],
        "service batch": service.estimate_batch("est", queries),
        "service multi": service.estimate_multi([("est", row) for row in rows]),
        "routed reduce": [reduce_partials(spec, states, row) for row in rows],
    }
    for path, results in paths.items():
        assert len(results) == len(expected), path
        for got, want in zip(results, expected):
            assert got.estimate == want.estimate, path
            assert np.array_equal(got.instance_values, want.instance_values), path
            assert (got.left_count, got.right_count) == \
                (want.left_count, want.right_count), path
    with wire(service) as client:
        remote = client.estimate_many("est", queries)
    assert [result.estimate for result in remote] == \
        [result.estimate for result in expected]


#: Bad requests: the family, the query and what every path must say.
BAD = {
    "a query for a join": ("rectangle", BoxSet([[1, 1]], [[5, 5]]),
                           "takes no query argument"),
    "no query for a range": ("range", None, "needs a query rectangle"),
    "a 1-D query on a 2-D range": ("range", BoxSet([[1]], [[5]]),
                                   "must be 2-dimensional"),
    "a query outside the domain": ("range", BoxSet([[0, 0]], [[999, 999]]),
                                   "outside the domain"),
    "an inverted query": ("range", BoxSet([[10, 10]], [[5, 5]], validate=False),
                          "lower endpoint above its upper endpoint"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_every_path_gives_one_verdict_before_any_kernel(rng, case):
    family, query, said = BAD[case]
    spec = SPECS[family]
    service, states = served(spec, rng)
    view = service.merged_view("est")
    with pytest.raises(QueryError, match=said) as info:
        view.estimate(query)
    verdict = f"family {family!r}: {info.value}"
    with pytest.raises(QueryError, match=said):
        view.estimate_batch([query])
    before = service.program_executor.stats, service.stats
    for path in (lambda: service.estimate("est", query),
                 lambda: service.estimate_batch("est", [query]),
                 lambda: service.estimate_multi([("est", query)]),
                 lambda: reduce_partials(spec, states, query)):
        with pytest.raises(ServiceError) as info:
            path()
        assert str(info.value) == verdict
    with wire(service) as client, pytest.raises(ServerError) as info:
        client.estimate("est", query)
    assert info.value.code == "bad_request"
    assert str(info.value) == f"ServiceError: {verdict}"
    executor, stats = service.program_executor.stats, service.stats
    assert executor.kernel_calls == before[0].kernel_calls
    assert executor.runs == before[0].runs
    assert stats.estimates == before[1].estimates


def test_a_scalar_service_estimate_is_one_cached_dispatch(rng):
    """``estimate`` runs on the service's executor like the batch verbs: one
    dispatch each, on the cached merged view.  The executor keeps nothing
    between runs, so a repeated query costs its letter sums again."""
    service, _ = served(SPECS["range"], rng, workers=1)
    query = random_boxes(rng, 1, 256, 2)
    first = service.estimate("est", query)
    computed = service.program_executor.stats.letter_sums_computed
    hits = service.stats.cache_hits
    second = service.estimate("est", query)
    executor = service.program_executor.stats
    assert executor.letter_sums_computed == 2 * computed
    assert service.stats.cache_hits == hits + 1
    assert service.stats.batch_estimates == 2
    assert second.estimate == first.estimate


INVERTED = [10, 10, 5, 5]
INVERTED_VERDICT = ("ServiceError: family 'range': query [10, 10, 5, 5] has a "
                    "lower endpoint above its upper endpoint")


def test_an_inverted_query_is_refused_by_the_family_check(rng):
    """The wire only decodes a query: an inverted rectangle is the range
    family's verdict, naming the row, alone or inside a coalesced batch
    whose other requests are answered by one dispatch."""
    service, _ = served(SPECS["range"], rng, workers=1)
    good = random_boxes(rng, 2, 256, 2)
    expected = [service.estimate("est", good[j:j + 1]).estimate for j in range(2)]
    rows = [*protocol.boxes_to_rows(good[:1]), INVERTED,
            *protocol.boxes_to_rows(good[1:])]
    with wire(service) as client:
        with pytest.raises(ServerError) as lone:
            client.estimate("est", INVERTED)
        dispatches = service.stats.batch_estimates
        replies = client.request_many(
            [protocol.build("estimate", name="est", query=row) for row in rows])
    assert lone.value.code == "bad_request"
    assert str(lone.value) == INVERTED_VERDICT
    assert service.stats.batch_estimates == dispatches + 1
    with pytest.raises(ServerError) as batched:
        protocol.raise_for_response(replies[1])
    assert str(batched.value) == INVERTED_VERDICT
    assert [protocol.raise_for_response(replies[j])["estimate"]
            for j in (0, 2)] == expected


def test_a_bad_query_keeps_its_verdict_beside_a_name_without_data():
    """A refused row's verdict does not depend on its batch: coalesced with
    a good query against a name that holds no data yet, the inverted
    rectangle still gets the family's verdict, and only the good query
    gets the compile's "no data" error — as on the scalar path."""
    service = EstimationService(num_shards=2, flush_threshold=None)
    service.register("est", SPECS["range"])
    good = [1, 1, 9, 9]
    with pytest.raises(ServiceError) as scalar:
        service.estimate("est", protocol.query_box(INVERTED))
    assert f"ServiceError: {scalar.value}" == INVERTED_VERDICT
    with wire(service) as client:
        replies = client.request_many(
            [protocol.build("estimate", name="est", query=row)
             for row in (good, INVERTED)])
    with pytest.raises(ServerError, match="before any data was inserted"):
        protocol.raise_for_response(replies[0])
    with pytest.raises(ServerError) as batched:
        protocol.raise_for_response(replies[1])
    assert str(batched.value) == INVERTED_VERDICT
    assert service.program_executor.stats.runs == 0
