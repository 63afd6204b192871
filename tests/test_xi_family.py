"""One interned xi family per ``(universe, coefficients)``.

The family — not the bank — owns the sign table and its lifetime: the
first evaluation through any bank over the same coefficients builds the
table, if it fits ``_TABLE_BYTE_LIMIT``, every other bank reads it, and
the record dies with its last bank.  A family over the limit stays on the
polynomial and says so once.  The cluster router reduces against resident
template estimators, so its families outlive single estimates.

A *service* builds a name's tables when the name's first batch is
buffered: the bank runs the row functions of an insert on zero boxes, so
the tables exist before the ack and neither a flush nor an estimate builds.

Builds and directly hashed ids are *counted* here through the process-wide
``sign_table_builds`` / ``direct_hash_ids`` totals, never timed.
"""

import gc
import logging
import subprocess
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.client import ServiceClient
from repro.cluster import ThreadedClusterRouter
from repro.cluster.fleet import LocalFleet, _worker_env
from repro.cluster.partial import merge_partial_states, reduce_partials
from repro.core import hashing
from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.core.hashing import FourWiseFamilyBank, sign_table_stats
from repro.errors import MergeCompatibilityError, ServerError
from repro.server import ThreadedServer
from repro.service import (
    EstimationService,
    EstimatorSpec,
    synthetic_boxes,
    synthetic_queries,
)
from repro.service.specs import apply_update
from repro.wal import WalWriter
from repro.wal.recovery import recover_service

from tests.test_property_batch_equivalence import FAMILY_CASES, _boxes

INSTANCES = 5


def counted(before: dict) -> tuple[int, int]:
    """``(table builds, directly hashed ids)`` since ``before``."""
    now = sign_table_stats()
    return (now["sign_table_builds"] - before["sign_table_builds"],
            now["direct_hash_ids"] - before["direct_hash_ids"])


def leaf_bank(seed: int, size: int = 1024) -> SketchBank:
    return SketchBank(Domain((size,)), all_words([Letter.LOWER_LEAF], 1),
                      INSTANCES, seed=seed)


def derived_tables() -> int:
    """Tables derived from live sign tables, over every family."""
    with hashing._FAMILIES_LOCK:
        families = list(hashing._FAMILIES.values())
    return sum(len(family._derived) for family in families)


class TestOneTablePerFamily:
    def test_shards_and_a_companion_share_one_table(self):
        """The first evaluation builds the table; the other shards, a
        companion and a bank made only afterwards read it."""
        shards = [leaf_bank(seed=9002) for _ in range(4)]
        banks = shards + [shards[0].companion()]
        points = np.arange(110)
        before = sign_table_stats()
        first = banks[0].letter_sums(0, Letter.LOWER_LEAF, points, points)
        assert counted(before) == (1, 0)
        banks.append(leaf_bank(seed=9002))
        for bank in banks[1:]:
            assert np.array_equal(
                bank.letter_sums(0, Letter.LOWER_LEAF, points, points), first)
        assert counted(before) == (1, 0)
        assert len({id(bank.xi_banks[0].resolve_table()) for bank in banks}) == 1

    def test_another_seed_is_another_family(self):
        first, second = leaf_bank(seed=9003), leaf_bank(seed=9004)
        assert first.xi_banks[0].resolve_table() is not None
        assert second.xi_banks[0]._xi_family().signs is None

    def test_oversized_universes_keep_hashing(self):
        ids = np.arange(0, 3000, 7)
        with mock.patch.object(FourWiseFamilyBank, "_TABLE_BYTE_LIMIT",
                               INSTANCES * 3000 - 1):
            bank = FourWiseFamilyBank(INSTANCES, 3000, seed=9005)
            before = sign_table_stats()
            assert bank.resolve_table() is None
            direct = bank.signs(ids)
            assert counted(before) == (0, len(ids))
        # The same family, now allowed a table, agrees with what it hashed.
        assert np.array_equal(bank.signs(ids), direct)
        assert bank.resolve_table() is not None


class TestLifetime:
    def test_a_family_dies_with_its_last_bank(self):
        first = FourWiseFamilyBank(INSTANCES, 2047, seed=9200)
        second = FourWiseFamilyBank(INSTANCES, 2047, seed=9200)
        before = sign_table_stats()
        assert first.resolve_table() is second.resolve_table()
        family = weakref.ref(second._xi_family())
        del first
        assert family() is not None
        del second
        gc.collect()
        assert family() is None
        # A new bank starts a new record and builds its table again.
        assert FourWiseFamilyBank(INSTANCES, 2047, seed=9200).resolve_table() \
            is not None
        assert counted(before) == (2, 0)


def benchmark_shaped_service(seed: int, wal=None) -> EstimationService:
    """The end-to-end benchmark's three estimators on a 4-shard store."""
    service = EstimationService(num_shards=4, flush_threshold=None)
    if wal is not None:
        service.attach_wal(wal)
    for offset, (name, family) in enumerate(
            (("rq", "range"), ("rj", "rectangle"), ("cj", "containment"))):
        service.register(name, family=family, domain=Domain.square(1024, 2),
                         num_instances=256, seed=seed + offset)
    return service


SIDES = (("rq", "data", 2000), ("rj", "left", 2000), ("rj", "right", 2000),
         ("cj", "outer", 2000), ("cj", "inner", 500))


def feed(service: EstimationService, sides=SIDES) -> None:
    """One buffered batch per side (the services here never auto-flush)."""
    domain = Domain.square(1024, 2)
    for index, (name, side, count) in enumerate(sides):
        service.ingest(name, synthetic_boxes(domain, count, seed=index),
                       side=side)


class TestSmallBatchesNeverWalkCold:
    """A service pre-pays: a name's first buffered batch builds its tables."""

    def test_a_routed_workers_first_flush(self):
        """What the benchmark's second routed worker holds at its first
        flush: ~2000 boxes on four sides and ~500 on ``cj.inner`` — ~125
        boxes per shard, under any single bank's break-even.  Each of the
        8 families built its table when its name's first batch was
        buffered; the flush builds nothing and hashes nothing."""
        service = benchmark_shaped_service(seed=9300)
        before = sign_table_stats()
        feed(service, SIDES[:1])
        assert counted(before) == (2, 0)                  # rq, nothing else
        feed(service, SIDES[1:])
        assert counted(before) == (8, 0)
        assert service.pending == 8500
        buffered = sign_table_stats()
        service.flush()
        assert counted(buffered) == (0, 0)
        after = service.describe()
        assert after["sign_table_builds"] - before["sign_table_builds"] == 8
        assert after["direct_hash_ids"] == before["direct_hash_ids"]
        assert after["sign_table_build_seconds"] > before[
            "sign_table_build_seconds"]
        assert after["sign_table_bytes"] == buffered["sign_table_bytes"]

    def test_a_name_never_fed_holds_no_table(self):
        service = benchmark_shaped_service(seed=9310)
        before = sign_table_stats()
        feed(service, SIDES[:1])
        service.flush()
        assert counted(before) == (2, 0)
        assert sign_table_stats()["sign_tables"] - before["sign_tables"] == 2
        for name in ("rj", "cj"):
            estimator = service.store.shard_estimators(name)[0]
            for side in type(estimator).SIDES:
                assert all(xi._xi_family().signs is None
                           for xi in estimator.side_bank(side.name).xi_banks)
        # An empty batch is not a first box.
        service.ingest("rj", synthetic_boxes(Domain.square(1024, 2), 0, seed=1))
        assert counted(before) == (2, 0)

    def test_racing_first_batches_build_each_family_once(self):
        service = benchmark_shaped_service(seed=9320)
        domain = Domain.square(1024, 2)
        barrier = threading.Barrier(4)
        errors: list = []

        def first_batch(index: int) -> None:
            try:
                barrier.wait(20.0)
                service.ingest("cj", synthetic_boxes(domain, 300, seed=index),
                               side=("outer", "inner")[index % 2])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        before = sign_table_stats()
        threads = [threading.Thread(target=first_batch, args=(index,))
                   for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counted(before) == (4, 0)                  # cj is 4-dimensional
        assert service.pending == 1200
        service.flush()
        assert counted(before) == (4, 0)

    def test_an_over_limit_universe_pre_pays_nothing(self, caplog):
        """Both services hash directly, the same ids: pre-paying a family
        that may not have a table costs no polynomial evaluation."""
        def hashed_by_a_flush(seed: int, prepay: bool) -> int:
            service = benchmark_shaped_service(seed=seed)
            if not prepay:                               # as if fed before
                service.pipeline.stats.names.add("rq")
            before = sign_table_stats()
            feed(service, SIDES[:1])
            assert counted(before) == (0, 0)
            service.flush()
            builds, hashed = counted(before)
            assert builds == 0 and hashed > 0
            return hashed

        with mock.patch.object(FourWiseFamilyBank, "_TABLE_BYTE_LIMIT", 1000), \
                caplog.at_level(logging.INFO, logger="repro.xi"):
            assert (hashed_by_a_flush(9330, prepay=True)
                    == hashed_by_a_flush(9340, prepay=False))
        stays = [record for record in caplog.records
                 if "stays on direct hashing" in record.getMessage()]
        # Once per family, pre-paid (the first service) or by the flush.
        assert len(stays) == 4
        assert all(record.levelno == logging.WARNING for record in stays)
        assert "universe=2047 families=256" in stays[0].getMessage()
        assert not [record for record in caplog.records
                    if "built" in record.getMessage()]

    def test_a_reregistered_name_pre_pays_again(self):
        service = benchmark_shaped_service(seed=9350)
        before = sign_table_stats()
        feed(service, SIDES[:1])
        service.flush()
        service.unregister("rq")
        service.register("rq", family="range", domain=Domain.square(1024, 2),
                         num_instances=256, seed=9359)
        assert counted(before) == (2, 0)
        feed(service, SIDES[:1])
        assert counted(before) == (4, 0)
        service.flush()
        assert counted(before) == (4, 0)

    def test_wal_replay_pre_pays_once(self, tmp_path):
        service = benchmark_shaped_service(
            seed=9360, wal=WalWriter(str(tmp_path), sync="none"))
        for _ in range(3):                                # 3 records a side
            feed(service, SIDES[:3])
        service.flush()
        service.detach_wal()
        del service
        gc.collect()
        before = sign_table_stats()
        recovered, report = recover_service(str(tmp_path), attach=False)
        assert report.replayed_records == 3 + 9           # registers + updates
        assert report.replayed_boxes == 3 * 6000
        assert counted(before) == (4, 0)                  # rq and rj, once each
        assert set(recovered.names()) == {"rq", "rj", "cj"}


class TestPrepaidTables:
    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_the_first_insert_and_estimate_build_nothing(self, family):
        """``prepay_tables`` runs the insert's own row functions, so it
        builds exactly what the first insert and the first estimate read."""
        sizes, sides, options = FAMILY_CASES[family]
        spec = EstimatorSpec.create(family, sizes, 16, seed=9380, **options)
        estimator = spec.build()
        before = sign_table_stats()
        estimator.prepay_tables()
        assert counted(before)[0] > 0
        prepaid = sign_table_stats()["sign_table_builds"], derived_tables()
        rng = np.random.default_rng(1)
        for side in sides:
            apply_update(spec, estimator, side, "insert", _boxes(
                rng, 20, sizes, degenerate=bool(spec.info.point_sides)))
        query = (_boxes(rng, 1, sizes, degenerate=False)
                 if spec.info.queryable else None)
        estimator.estimate(query)
        assert (sign_table_stats()["sign_table_builds"],
                derived_tables()) == prepaid
        assert counted(before)[1] == 0


class TestLogRecords:
    def test_one_record_per_family_build(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.xi"):
            bank = FourWiseFamilyBank(INSTANCES, 2047, seed=9370)
            assert bank.resolve_table() is not None
            assert bank.resolve_table() is not None
            service = EstimationService(num_shards=2)
            service.register("rq", family="range", domain=Domain.square(64, 2),
                             num_instances=INSTANCES, seed=9371)
            service.ingest("rq", synthetic_boxes(Domain.square(64, 2), 3,
                                                 seed=1), side="data")
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 3
        assert all(record.name == "repro.xi" and record.levelno == logging.INFO
                   for record in caplog.records)
        assert messages[0].startswith(
            f"xi family built: universe=2047 families={INSTANCES} "
            f"bytes={2047 * INSTANCES} ms=")
        for message in messages[1:]:
            assert f"universe=127 families={INSTANCES} " in message

    def test_one_warning_per_family_over_the_limit(self, caplog):
        with mock.patch.object(FourWiseFamilyBank, "_TABLE_BYTE_LIMIT", 1000), \
                caplog.at_level(logging.INFO, logger="repro.xi"):
            first = FourWiseFamilyBank(INSTANCES, 2047, seed=9372)
            second = FourWiseFamilyBank(INSTANCES, 2047, seed=9372)
            assert first.resolve_table() is None
            assert second.signs(np.arange(10)).shape == (INSTANCES, 10)
            assert first.resolve_table() is None
        assert [(record.levelno, record.getMessage()) for record in caplog.records] == [
            (logging.WARNING, "xi family stays on direct hashing: universe=2047 "
             f"families={INSTANCES} bytes={2047 * INSTANCES} over the limit "
             "of 1000")]


def test_first_ingest_does_not_import_numpy_ma():
    """``np.unique`` and ``np.median`` pull in ``numpy.ma`` on their first
    call (10-30 ms, on a server's first ingest frame or first estimate);
    partitioning and boosting go without it — and nothing a serving
    process does probes for numba or loads the process-pool machinery."""
    script = (
        "import sys\n"
        "from repro.cluster import router\n"
        "from repro.core.domain import Domain\n"
        "from repro.service import EstimationService, synthetic_boxes\n"
        "from repro.service import synthetic_queries\n"
        "domain = Domain.square(64, 2)\n"
        "service = EstimationService(num_shards=4)\n"
        "service.register('rq', family='range', domain=domain,\n"
        "                 num_instances=4, seed=1)\n"
        "service.ingest('rq', synthetic_boxes(domain, 50, seed=1), side='data')\n"
        "service.flush()\n"
        "queries = synthetic_queries(domain, 3, seed=2)\n"
        "service.estimate('rq', queries[0])\n"
        "service.estimate_batch('rq', queries)\n"
        "for module in ('numpy.ma', 'numba', 'multiprocessing',\n"
        "               'concurrent.futures.process'):\n"
        "    assert module not in sys.modules, module + ' imported'\n")
    done = subprocess.run([sys.executable, "-c", script], env=_worker_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- the cluster router's resident templates -------------------------------------------


def partial_states(spec: EstimatorSpec, sides, sizes, seed: int,
                   degenerate: bool):
    """Two workers' states over disjoint data, and the single-node estimator."""
    rng = np.random.default_rng(seed)
    workers = [spec.build(), spec.build()]
    whole = spec.build()
    for worker in workers:
        for side in sides:
            boxes = _boxes(rng, 30, sizes, degenerate=degenerate)
            apply_update(spec, worker, side, "insert", boxes)
            apply_update(spec, whole, side, "insert", boxes)
    return [worker.state_dict() for worker in workers], whole


class TestReducePartials:
    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_template_or_not_is_bit_identical(self, family):
        sizes, sides, options = FAMILY_CASES[family]
        spec = EstimatorSpec.create(family, sizes, 9, seed=41, **options)
        states, whole = partial_states(spec, sides, sizes, seed=5,
                                       degenerate=family == "epsilon")
        query = (_boxes(np.random.default_rng(6), 1, sizes, degenerate=False)
                 if spec.info.queryable else None)
        expected = whole.estimate(query)
        template = spec.build()
        for result in (reduce_partials(spec, states, query),
                       reduce_partials(spec, states, query, template=template),
                       reduce_partials(spec, states, query, template=template)):
            assert result.estimate == expected.estimate
            assert np.array_equal(result.instance_values,
                                  expected.instance_values)
            assert (result.left_count, result.right_count) == (
                expected.left_count, expected.right_count)
        # The template only lends its xi families; it stays empty.
        merged = merge_partial_states(spec, states, template=template)
        assert merged is not template
        for side in type(template).SIDES:
            bank = template.side_bank(side.name)
            assert not bank.counter_tensor.any()
            assert merged.side_bank(side.name).xi_banks[0] is bank.xi_banks[0]

    def test_a_template_of_another_seed_is_refused(self):
        sizes, sides, _ = FAMILY_CASES["range"]
        spec = EstimatorSpec.create("range", sizes, 9, seed=41)
        states, _ = partial_states(spec, sides, sizes, seed=5, degenerate=False)
        stale = EstimatorSpec.create("range", sizes, 9, seed=42).build()
        with pytest.raises(MergeCompatibilityError, match="seed mismatch"):
            merge_partial_states(spec, states, template=stale)


DOMAIN = Domain.square(1024, 2)


def metric(exposition: str, name: str) -> float:
    (line,) = [line for line in exposition.splitlines()
               if line.startswith(name + " ")]
    return float(line.split()[1])


@pytest.mark.e2e
class TestRouterTemplates:
    """Subprocess workers, so this process's tables are the router's own."""

    def test_routed_estimates_build_each_family_once(self):
        gc.collect()
        queries = synthetic_queries(DOMAIN, 200, seed=3)
        with LocalFleet(2) as fleet, ThreadedClusterRouter(
                fleet.addresses(), start_heartbeat=False) as handle, ServiceClient(
                    "127.0.0.1", handle.port, timeout=60) as client:
            before = sign_table_stats()
            client.register("rq", family="range", sizes=[1024, 1024],
                            instances=16, seed=9400)
            client.register("cj", family="containment", sizes=[1024, 1024],
                            instances=16, seed=9401)
            boxes = synthetic_boxes(DOMAIN, 2000, seed=1)
            client.ingest("rq", boxes, side="data")
            client.ingest("cj", boxes, side="outer")
            # One frame per name and no flush yet: every worker has built
            # every family of both names (2 + 4 dimensions), side by side
            # on the frame the router split between them; the router none.
            unflushed = client.metrics()
            assert metric(unflushed,
                          "repro_cluster_sign_table_builds_total") == 2 * 6
            assert metric(unflushed,
                          "repro_cluster_direct_hash_ids_total") == 0
            assert metric(
                unflushed, "repro_cluster_router_sign_table_builds_total"
            ) == before["sign_table_builds"]
            client.flush()
            assert counted(before) == (0, 0)
            # The template builds its families (one per dimension) at the
            # first estimate; no estimate hashes.
            answers = [client.estimate("rq", queries[0]).estimate]
            assert counted(before) == (2, 0)
            answers += [client.estimate("rq", queries[index]).estimate
                        for index in range(1, 200)]
            assert counted(before) == (2, 0)
            stats = client.stats()
            assert (stats["sign_table_builds"] - before["sign_table_builds"],
                    stats["sign_tables"] - before["sign_tables"]) == (2, 2)
            text = client.metrics()
            with ServiceClient(*fleet.addresses()[0]) as worker:
                worker_text = worker.metrics()

            # Released with the name: the template held the last banks.
            spec, template = handle.router._specs["rq"]
            families = [weakref.ref(xi._xi_family())
                        for xi in template.bank.xi_banks]
            del template
            client.unregister("rq")
            gc.collect()
            assert [family() for family in families] == [None, None]
            assert (client.stats()["sign_tables"]
                    == sign_table_stats()["sign_tables"]
                    == before["sign_tables"])

        reference = EstimationService(num_shards=1)
        reference.register("rq", family="range", domain=spec.domain(),
                           num_instances=16, seed=9400)
        reference.ingest("rq", boxes, side="data")
        reference.flush()
        assert answers == [reference.estimate("rq", queries[index]).estimate
                           for index in range(200)]

        assert metric(text, "repro_cluster_router_sign_table_builds_total") >= 2
        assert metric(text, "repro_cluster_router_direct_hash_ids_total") == (
            before["direct_hash_ids"])
        assert metric(text, "repro_cluster_router_sign_tables") >= 2
        # Summed over the workers: the flush and the estimates added none.
        assert metric(text, "repro_cluster_sign_table_builds_total") == 2 * 6
        assert metric(text, "repro_cluster_direct_hash_ids_total") == 0
        assert metric(worker_text, "repro_server_sign_table_builds_total") == 6
        assert metric(worker_text, "repro_server_direct_hash_ids_total") == 0
        # Build time rides beside the build count, through both fronts.
        assert stats["sign_table_build_seconds"] > 0.0
        assert 0.0 < metric(
            worker_text, "repro_server_sign_table_build_seconds_total"
        ) <= metric(text, "repro_cluster_sign_table_build_seconds_total")
        # The router's own line is there too (metric() requires exactly one).
        metric(text, "repro_cluster_router_sign_table_build_seconds_total")


@pytest.mark.e2e
class TestRouterTemplateLifecycle:
    @pytest.fixture()
    def workers(self):
        handles = [ThreadedServer(EstimationService(num_shards=2)).start()
                   for _ in range(2)]
        try:
            yield handles
        finally:
            for handle in handles:
                handle.stop()

    def routed(self, workers):
        return ThreadedClusterRouter(
            [("127.0.0.1", handle.port) for handle in workers],
            start_heartbeat=False)

    def test_reregistering_with_another_seed(self, workers):
        boxes = synthetic_boxes(DOMAIN, 400, seed=2)
        query = synthetic_queries(DOMAIN, 1, seed=4)[0]
        with self.routed(workers) as handle, ServiceClient(
                "127.0.0.1", handle.port) as client:
            router = handle.router
            for seed in (71, 72):
                client.register("rq", family="range", sizes=[1024, 1024],
                                instances=8, seed=seed)
                assert set(router._specs) == {"rq"}
                spec, template = router._specs["rq"]
                assert template.bank.xi_banks[0].matches_coefficients(
                    spec.build().bank.xi_banks[0].coefficients)
                client.ingest("rq", boxes, side="data")
                client.flush()
                reference = EstimationService(num_shards=1)
                reference.register("rq", family="range", domain=spec.domain(),
                                   num_instances=8, seed=seed)
                reference.ingest("rq", boxes, side="data")
                reference.flush()
                assert (client.estimate("rq", query).estimate
                        == reference.estimate("rq", query).estimate)
                stale = template
                client.unregister("rq")
                assert not router._specs
            # Had the old template survived the re-registration, the seed
            # check of load_state_dict is what refuses the reduction.
            client.register("rq", family="range", sizes=[1024, 1024],
                            instances=8, seed=73)
            client.ingest("rq", boxes, side="data")
            client.flush()
            router._specs["rq"] = (router._specs["rq"][0], stale)
            with pytest.raises(ServerError, match="seed mismatch"):
                client.estimate("rq", query)

    def test_specs_adopted_from_workers_get_templates(self, workers):
        boxes = synthetic_boxes(DOMAIN, 400, seed=2)
        for handle in workers:
            handle.service.register("rq", family="range", domain=DOMAIN,
                                    num_instances=8, seed=81)
        with self.routed(workers) as handle, ServiceClient(
                "127.0.0.1", handle.port) as client:
            router = handle.router
            assert set(router._specs) == {"rq"}           # _reconcile_specs
            # A name that appears on the workers behind the router's back
            # is adopted, template included, by the next refresh.
            for worker in workers:
                worker.service.register("late", family="range", domain=DOMAIN,
                                        num_instances=8, seed=82)
            handle.run(router.refresh_specs())
            assert set(router._specs) == {"rq", "late"}
            for name in ("rq", "late"):
                client.ingest(name, boxes, side="data")
            client.flush()
            query = synthetic_queries(DOMAIN, 1, seed=4)[0]
            for name, seed in (("rq", 81), ("late", 82)):
                reference = EstimationService(num_shards=1)
                reference.register(name, family="range", domain=DOMAIN,
                                   num_instances=8, seed=seed)
                reference.ingest(name, boxes, side="data")
                reference.flush()
                assert (client.estimate(name, query).estimate
                        == reference.estimate(name, query).estimate)
