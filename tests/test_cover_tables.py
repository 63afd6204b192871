"""Coordinate-indexed cover-sum tables and interned xi sign tables.

Every implementation of a letter sum must agree to the bit with the scalar
``cover`` / ``point_cover`` walk, in both counter layouts: gathers from the
coordinate tables derived from the xi family's sign table, the vectorised
cover walk over the sign table (a domain whose derived tables would exceed
``_DERIVED_BYTE_LIMIT``) and the same walk over directly hashed signs (a
family over ``_TABLE_BYTE_LIMIT``).  They must also reject the same inputs
with the same exception.  Every table is coordinate-major: one row of
``instances`` bytes per id or coordinate.
"""

import gc
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashing
from repro.core.atomic import Letter, SketchBank, all_words, letter_covers
from repro.core.domain import Domain
from repro.core.dyadic import DyadicDomain
from repro.core.hashing import FourWiseFamilyBank, sign_table_stats
from repro.core.program import LetterSumRef, letter_cover_size
from repro.errors import DomainError, SketchConfigError
from repro.geometry.boxset import BoxSet
from repro.service import EstimationService, synthetic_boxes

from tests import helpers

SIZES = (1, 2, 16, 64, 256, 1024)
INSTANCES = 5


def max_levels(size: int) -> list[int | None]:
    height = size.bit_length() - 1
    return sorted({0, height // 2, max(height - 1, 0)}) + [None]


CONFIGS = [(size, max_level) for size in SIZES for max_level in max_levels(size)]


#: ``(letter, split)``: every letter, one band or one band per level.
LAYOUTS = [(letter, split) for split in (False, True) for letter in Letter]


def bank_for(size: int, max_level, letter: Letter, seed: int,
             split: bool = False) -> SketchBank:
    domain = Domain((size,), max_levels=max_level)
    return SketchBank(domain, all_words([letter], 1), INSTANCES, seed=seed,
                      bands=helpers.identity_bands(domain) if split else None)


def sums(bank: SketchBank, letter: Letter, lows, highs) -> np.ndarray:
    """What a query reads of the bank: per level on a level-split bank."""
    if bank.bands is not None:
        return bank.level_sums(0, letter, lows, highs)
    return bank.letter_sums(0, letter, lows, highs)


def scalar_letter_sums(bank: SketchBank, letter: Letter, lows, highs) -> np.ndarray:
    return helpers.scalar_letter_sums(bank, 0, letter, lows, highs,
                                      bands=bank.bands and bank.bands[0])


def on_every_path(bank: SketchBank, compute) -> list:
    """``compute(bank)`` on each of :data:`helpers.PATHS`, in order."""
    results = []
    for limit in helpers.PATHS:
        with helpers.on_path(limit, bank):
            results.append(compute(bank))
    return results


def edge_intervals(size: int, max_level) -> list[tuple[int, int]]:
    """Degenerate, full, exactly aligned and several-block intervals."""
    dyadic = DyadicDomain(size, max_level=max_level)
    intervals = {(0, 0), (size - 1, size - 1), (0, size - 1)}
    for level in range(dyadic.height + 1):
        for index in {0, 1, (size >> level) - 1}:
            if index < size >> level:
                intervals.add((index << level, ((index + 1) << level) - 1))
    block = 1 << dyadic.max_level
    for first, last in ((0, 2), (1, 3), (0, (size // block) - 1)):
        lo, hi = first * block + block // 2, last * block + block // 2
        if 0 <= lo <= hi < size:
            intervals.add((lo, hi))            # spans whole max-level blocks
            intervals.add((first * block, min(hi, size - 1)))
    return sorted(intervals)


@st.composite
def intervals_in(draw, size: int):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        max_size=24))
    return [(min(a, b), max(a, b)) for a, b in pairs]


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("size,max_level", CONFIGS)
    @pytest.mark.parametrize("letter,split", LAYOUTS)
    def test_edge_cases(self, size, max_level, letter, split):
        lows, highs = (np.array(column, dtype=np.int64)
                       for column in zip(*edge_intervals(size, max_level)))
        bank = bank_for(size, max_level, letter, seed=7, split=split)
        scalar = scalar_letter_sums(bank, letter, lows, highs)
        for result in on_every_path(
                bank, lambda bank: sums(bank, letter, lows, highs)):
            assert result.flags.writeable
            assert split or result.dtype == np.float64
            assert np.array_equal(result, scalar)

    @pytest.mark.parametrize("size,max_level", CONFIGS)
    @pytest.mark.parametrize("letter", list(Letter))
    def test_letter_covers_and_cover_sizes_are_the_scalar_covers(
            self, size, max_level, letter):
        """``letter_covers`` gives each interval the scalar walk's nodes as
        a multiset, ``letter_cover_size`` their count — also for ``lo ==
        hi``, an empty batch and (0 nodes) an empty interval."""
        dyadic = DyadicDomain(size, max_level=max_level)
        bank = bank_for(size, max_level, letter, seed=7)
        for intervals in (edge_intervals(size, max_level), []):
            lows = np.array([lo for lo, _ in intervals], dtype=np.int64)
            highs = np.array([hi for _, hi in intervals], dtype=np.int64)
            ids, lengths = letter_covers(dyadic, letter, lows, highs)
            assert len(lengths) == len(intervals) and len(ids) == lengths.sum()
            starts = np.concatenate([[0], np.cumsum(lengths)])
            for box, (lo, hi) in enumerate(intervals):
                scalar = helpers.scalar_cover(dyadic, letter, lo, hi)
                assert sorted(ids[starts[box]:starts[box + 1]]) == sorted(scalar)
                ref = LetterSumRef(bank, 0, letter, lo, hi)
                assert letter_cover_size(ref) == len(scalar)
        if size > 1:
            assert letter_cover_size(LetterSumRef(bank, 0, letter, 1, 0)) == 0

    @given(st.data(), st.sampled_from(CONFIGS), st.sampled_from(LAYOUTS),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_table_walk_and_scalar_agree(self, data, config, layout, seed):
        size, max_level = config
        letter, split = layout
        pairs = data.draw(intervals_in(size))
        lows = np.array([p[0] for p in pairs], dtype=np.int64)
        highs = np.array([p[1] for p in pairs], dtype=np.int64)
        bank = bank_for(size, max_level, letter, seed, split=split)
        hashed, walked, tabled = on_every_path(
            bank, lambda bank: sums(bank, letter, lows, highs))
        assert np.array_equal(hashed, walked)
        assert np.array_equal(walked, tabled)
        assert np.array_equal(tabled, scalar_letter_sums(bank, letter, lows, highs))

    def test_every_interval_of_a_small_domain(self):
        for max_level in max_levels(16):
            bank = bank_for(16, max_level, Letter.INTERVAL, seed=3)
            lows, highs = (np.array(column) for column in zip(
                *[(lo, hi) for lo in range(16) for hi in range(lo, 16)]))
            assert np.array_equal(
                bank.letter_sums(0, Letter.INTERVAL, lows, highs),
                scalar_letter_sums(bank, Letter.INTERVAL, lows, highs))

    def test_over_budget_domain_walks_covers(self, monkeypatch):
        # A 2^16 domain with 256 instances is over the real budget
        # (18 * 65536 * 256 bytes); shrink the budget instead of
        # allocating that.
        letter = Letter.INTERVAL
        lows = np.array([0, 3, 17, 64, 255])
        highs = np.array([255, 3, 200, 127, 255])
        monkeypatch.setattr(
            FourWiseFamilyBank, "_DERIVED_BYTE_LIMIT",
            DyadicDomain(256).interval_table_bytes(INSTANCES) - 1)
        built = []
        monkeypatch.setattr(DyadicDomain, "interval_cover_tables",
                            lambda *args: built.append(args))
        bank = bank_for(256, None, letter, seed=10)
        assert np.array_equal(bank.letter_sums(0, letter, lows, highs),
                              scalar_letter_sums(bank, letter, lows, highs))
        assert not built

    def test_real_budget_excludes_a_2_16_domain(self):
        dyadic = DyadicDomain(1 << 16)
        assert dyadic.interval_table_bytes(256) >= (16 + 2) * (1 << 16) * 256
        assert dyadic.interval_table_bytes(256) > FourWiseFamilyBank._DERIVED_BYTE_LIMIT
        assert (DyadicDomain(1024).interval_table_bytes(256)
                <= FourWiseFamilyBank._DERIVED_BYTE_LIMIT)

    @pytest.mark.parametrize("limit", helpers.PATHS[:2])
    def test_a_walk_over_zero_intervals(self, limit):
        """A level-split 2^16 bank walks covers (its level tables are over
        the real budget) — and over no intervals returns no columns."""
        bank = SketchBank(Domain((1 << 16,)),
                          all_words([Letter.INTERVAL, Letter.UPPER_POINT], 1),
                          256, seed=11, bands=(tuple(range(17)),))
        empty = np.empty(0, dtype=np.int64)
        with helpers.on_path(limit, bank):
            for letter in (Letter.INTERVAL, Letter.UPPER_POINT):
                assert bank.level_sums(0, letter, empty, empty).shape == (256, 0, 17)


class TestFoldedTopPlanes:
    """Every cap ``0..height``: a cover sum is two gathers from the planes
    (the whole blocks between ``lo`` and ``hi`` folded in) and equals the
    sum of the signs over the ``covers()`` walk; caps too deep for int8
    keep the prefix and still match."""

    @staticmethod
    def walked_sums(dyadic, signs, lows, highs):
        ids, lengths = dyadic.covers(lows, highs)
        owner = np.repeat(np.arange(len(lows)), lengths)
        sums = np.zeros((len(lows), signs.shape[1]), dtype=np.int64)
        np.add.at(sums, owner, signs[ids])
        return sums

    @pytest.mark.parametrize("size", [1, 2, 16, 64, 100, 1000, 1024, 3000])
    def test_every_cap_matches_the_walk(self, size):
        rng = np.random.default_rng(size)
        height = DyadicDomain(size).height
        signs = FourWiseFamilyBank(INSTANCES, 2 * (1 << height) - 1,
                                   seed=size).resolve_table()
        points = rng.integers(0, size, size=(2, 400))
        lows, highs = points.min(axis=0), points.max(axis=0)
        edges = edge_intervals(1 << height, None)
        lows = np.concatenate([lows, [lo for lo, _ in edges]])
        highs = np.concatenate([highs, [hi for _, hi in edges]])
        taken = set()
        for max_level in range(height + 1):
            dyadic = DyadicDomain(size, max_level=max_level)
            tables = dyadic.interval_cover_tables(signs)
            folded = max_level + 1 + (dyadic.size >> max_level) <= 127
            assert len(tables) == (1 if folded else 2)
            assert sum(table.nbytes for table in tables
                       ) == dyadic.interval_table_bytes(INSTANCES)
            sums = dyadic.interval_cover_sums(signs, tables, lows, highs)
            if folded:
                assert sums.dtype == np.int8
            assert np.array_equal(
                sums, self.walked_sums(dyadic, signs, lows, highs))
            assert np.abs(sums).max() <= dyadic.cover_sum_bound()
            taken.add(folded)
        assert taken == ({True, False} if 1 << height >= 128 else {True})

    def test_folded_planes_reach_the_int8_edge(self):
        # 64 blocks of all +1 signs: the last block's left plane holds a
        # 5-node cover plus the 63 blocks before it, and the covers that
        # span the most blocks still sum in int8.
        dyadic = DyadicDomain(2048, max_level=5)
        signs = np.ones((dyadic.num_nodes, 1), dtype=np.int8)
        (bounds,) = dyadic.interval_cover_tables(signs)
        assert bounds.dtype == np.int8
        assert int(np.abs(bounds.astype(np.int64)).max()) == 5 + 63
        lows, highs = np.array([0, 1, 31]), np.array([2047, 2046, 2016])
        sums = dyadic.interval_cover_sums(signs, (bounds,), lows, highs)
        _, lengths = dyadic.covers(lows, highs)
        assert sums.dtype == np.int8 and sums[:, 0].tolist() == lengths.tolist()


class TestSameErrorsOnEveryPath:
    BAD = [
        (Letter.INTERVAL, [0, 5], [3, 4]),           # lo > hi
        (Letter.INTERVAL, [0, -1], [3, 4]),          # below the domain
        (Letter.INTERVAL, [0, 2], [3, 16]),          # beyond the domain
        (Letter.INTERVAL, [16, 2], [3, 1]),          # first offender wins
        (Letter.ENDPOINTS, [0, -2], [3, 4]),
        (Letter.ENDPOINTS, [0, 1], [3, 99]),
        (Letter.LOWER_POINT, [16], [3]),
        (Letter.UPPER_POINT, [0], [-1]),
        (Letter.LOWER_LEAF, [-16], [3]),            # leaf id -1
        (Letter.UPPER_LEAF, [0], [16]),
    ]

    @staticmethod
    def failures(bank: SketchBank, call) -> list:
        """``(type, message)`` of what ``call(bank)`` raises on every path."""
        def failure(bank):
            with pytest.raises((DomainError, SketchConfigError)) as caught:
                call(bank)
            return type(caught.value), str(caught.value)
        return on_every_path(bank, failure)

    @pytest.mark.parametrize("letter,lows,highs", BAD)
    @pytest.mark.parametrize("max_level", [0, 2, None])
    def test_identical_exception(self, letter, lows, highs, max_level):
        lows, highs = np.array(lows), np.array(highs)
        bank = bank_for(16, max_level, letter, seed=1)
        failures = self.failures(
            bank, lambda bank: bank.letter_sums(0, letter, lows, highs))
        assert failures[0] == failures[1] == failures[2]

    @pytest.mark.parametrize("letter", list(Letter))
    @pytest.mark.parametrize("max_level", [0, 2, None])
    def test_a_level_split_insert_of_an_empty_interval(self, letter, max_level):
        """``[10, 9]``, what a strict shrink makes of ``[9, 10]``: refused
        by an interval letter on every path, summed at the ends it reads by
        a point or leaf letter."""
        boxes = BoxSet(np.array([[10]]), np.array([[9]]), validate=False)

        def insert(bank):
            fresh = bank.companion()
            try:
                fresh.insert(boxes)
            except DomainError as exc:
                return str(exc)
            return fresh.counter_tensor.tolist()

        outcomes = on_every_path(
            bank_for(16, max_level, letter, seed=1, split=True), insert)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] == "cover requested for empty interval [10, 9]"
                ) == (letter is Letter.INTERVAL)


class TestInterning:
    def test_same_seed_shares_one_table(self):
        first = FourWiseFamilyBank(6, 255, seed=21)
        second = FourWiseFamilyBank(6, 255, seed=21)
        other = FourWiseFamilyBank(6, 255, seed=22)
        tables = [bank.resolve_table() for bank in (first, second, other)]
        assert tables[0] is tables[1]
        assert tables[0] is not tables[2]
        assert not np.array_equal(tables[0], tables[2])
        # A new bank adopts the table another bank built.
        assert FourWiseFamilyBank(6, 255, seed=21).resolve_table() is tables[0]
        # Same coefficients over another universe are another table.
        wider = FourWiseFamilyBank.from_coefficients(first.coefficients, 511)
        assert wider.resolve_table() is not tables[0]

    @pytest.mark.parametrize("size,max_level", [
        (64, 0), (64, 3), (64, None), (256, 0), (1024, 2)])
    def test_tables_are_read_only_rows(self, size, max_level):
        bank = bank_for(size, max_level, Letter.INTERVAL, seed=2)
        xi, dyadic = bank.xi_banks[0], bank.domain.dyadic(0)
        signs = xi.resolve_table()
        bounds, *prefix = xi.derived_tables(
            ("interval", dyadic.size, dyadic.max_level),
            dyadic.interval_table_bytes(INSTANCES), dyadic.interval_cover_tables)
        (points,) = xi.derived_tables(
            ("point", dyadic.size, dyadic.max_level),
            dyadic.point_table_bytes(INSTANCES), dyadic.point_cover_table)
        assert signs.shape == (dyadic.num_nodes, INSTANCES)
        assert points.shape == (size, INSTANCES)
        assert bounds.shape == ((dyadic.max_level + 2) * size, INSTANCES)
        # The block prefix lives inside the two top planes wherever they
        # stay int8; only the deepest caps of a large domain keep it.
        blocks = size >> dyadic.max_level
        assert len(prefix) == (dyadic.max_level + 1 + blocks > 127)
        for array in prefix:
            assert array.shape == (blocks + 1, INSTANCES)
            assert array.dtype == np.int32
        assert (signs.dtype, points.dtype, bounds.dtype) == (np.int8,) * 3
        assert (points.nbytes == dyadic.point_table_bytes(INSTANCES)
                and bounds.nbytes + sum(array.nbytes for array in prefix)
                == dyadic.interval_table_bytes(INSTANCES))
        for array in (signs, points, bounds, *prefix):
            assert array.flags.c_contiguous and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_table_matches_direct_evaluation(self):
        bank = FourWiseFamilyBank(70, 3000, seed=5)    # > one build block
        with mock.patch.object(FourWiseFamilyBank, "_TABLE_BYTE_LIMIT", 0):
            direct = bank.signs(np.arange(40))
        table = bank.resolve_table()
        assert table.shape == (3000, 70) and table.dtype == np.int8
        assert np.array_equal(table[:40].T, direct)
        assert np.array_equal(table.T, FourWiseFamilyBank(70, 3000, seed=5).signs(
            np.arange(3000)))
        # Against the polynomial itself (Horner), not another table.
        cold = FourWiseFamilyBank(70, 3000, seed=5)
        hashed = cold._hash(np.arange(3000, dtype=np.uint64), cold.coefficients)
        assert np.array_equal(
            table.T, np.where(hashed & np.uint64(1), np.int8(-1), np.int8(1)))

    def test_spec_builds_and_shards_share_tables(self):
        service = EstimationService(num_shards=4)
        domain = Domain.square(64, 2)
        service.register("join", family="rectangle", domain=domain,
                         num_instances=8, seed=31)
        boxes = synthetic_boxes(domain, 600, seed=1)
        service.ingest("join", boxes, side="left")
        service.ingest("join", boxes, side="right")
        service.flush()
        service.estimate("join")
        spec = service.spec("join")
        banks = [spec.build().side_bank("left"), spec.build().side_bank("left"),
                 service.merged_view("join").side_bank("left")]
        for dim in range(2):
            tables = [bank.xi_banks[dim].resolve_table() for bank in banks]
            assert tables[0] is not None
            assert all(table is tables[0] for table in tables)
        # 4 shards x 2 sides + views, yet one table per xi family.
        assert service.describe()["sign_tables"] == sign_table_stats()["sign_tables"]

    def test_racing_threads_build_once(self, monkeypatch):
        """4 threads per family, 3 families, more threads than cores: every
        sign table and every derived table is built exactly once."""
        sign_builds, derived_builds = [], []
        build_signs = hashing._build_signs
        started = threading.Event()

        def slow_build(universe_size, coefficients):
            sign_builds.append(coefficients.tobytes())
            started.wait(5.0)              # hold the build until all race
            return build_signs(universe_size, coefficients)

        def build_derived(signs):
            derived_builds.append(id(signs))
            return (signs[:, :1].copy(),)

        monkeypatch.setattr(hashing, "_build_signs", slow_build)
        banks = [FourWiseFamilyBank(4, 127, seed=77 + index % 3)
                 for index in range(12)]
        results: list = [None] * len(banks)

        def resolve(index):
            signs = banks[index].resolve_table()
            derived = banks[index].derived_tables("probe", 4, build_derived)
            results[index] = (signs, derived[0])

        threads = [threading.Thread(target=resolve, args=(index,))
                   for index in range(len(banks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            started.set()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sign_builds) == len(set(sign_builds)) == 3
        assert len(derived_builds) == 3
        for index, (signs, derived) in enumerate(results):
            assert signs is results[index % 3][0]
            assert derived is results[index % 3][1]


class TestLifetime:
    def test_tables_die_with_their_last_bank(self):
        gc.collect()         # tables of earlier tests still awaiting the cycle gc
        bank = bank_for(64, None, Letter.ENDPOINTS, seed=123)
        bank.letter_sums(0, Letter.ENDPOINTS, np.array([1]), np.array([2]))
        table = weakref.ref(bank.xi_banks[0]._family)
        # The interned object is the array that owns the bytes: a view
        # handed out instead would pin the table through its base.
        assert bank.xi_banks[0].resolve_table().base is None
        signs = weakref.ref(bank.xi_banks[0].resolve_table())
        before = sign_table_stats()
        assert before["sign_table_bytes"] >= 127 * INSTANCES + 64 * INSTANCES
        del bank
        gc.collect()
        assert table() is None and signs() is None
        after = sign_table_stats()
        assert after["sign_tables"] == before["sign_tables"] - 1

    @pytest.mark.parametrize("tenant", [False, True])
    def test_unregister_frees_the_tables(self, tenant):
        service = EstimationService(num_shards=2)
        domain = Domain.square(64, 2)
        name = "join"
        if tenant:
            service.enable_tenancy()
            service.tenant_create("acme", token="secret")
            name = "acme/join"
        service.register(name, family="rectangle", domain=domain,
                         num_instances=8, seed=4242)
        boxes = synthetic_boxes(domain, 400, seed=2)
        service.ingest(name, boxes, side="left")
        service.ingest(name, boxes, side="right")
        service.flush()
        service.estimate(name)
        banks = service.merged_view(name).side_bank("left").xi_banks
        # The view's fresh banks adopt the tables the shards built.
        assert all(xi.resolve_table() is not None for xi in banks)
        tables = [weakref.ref(xi._family) for xi in banks]
        assert service.describe()["sign_table_bytes"] > 0
        del banks
        if tenant:
            service.tenant_remove("acme")
        else:
            service.unregister(name)
        gc.collect()
        assert all(table() is None for table in tables)


class TestObservability:
    def test_stats_and_metrics_report_the_tables(self):
        from repro.client import ServiceClient
        from repro.cluster import ThreadedClusterRouter
        from repro.server import ThreadedServer

        domain = Domain.square(64, 2)
        worker = ThreadedServer(EstimationService(num_shards=2)).start()
        try:
            with ThreadedClusterRouter(
                    [("127.0.0.1", worker.port)],
                    start_heartbeat=False) as router:
                with ServiceClient("127.0.0.1", router.port) as client:
                    client.register("join", family="rectangle", sizes=[64, 64],
                                    instances=8, seed=99)
                    for side in ("left", "right"):
                        client.ingest("join", synthetic_boxes(domain, 400, seed=3),
                                      side=side)
                    client.flush()
                    cluster_text = client.metrics()
                with ServiceClient("127.0.0.1", worker.port) as client:
                    stats = client.stats()
                    worker_text = client.metrics()
        finally:
            worker.stop()
        assert stats["sign_tables"] >= 2            # one per dimension
        assert stats["sign_table_bytes"] >= 2 * 8 * 127

        def gauge(text: str, name: str) -> int:
            (line,) = [line for line in text.splitlines()
                       if line.startswith(name + " ")]
            return int(line.split()[1])

        assert gauge(worker_text, "repro_server_sign_tables") >= 2
        assert gauge(worker_text, "repro_server_sign_table_bytes") >= 2 * 8 * 127
        assert gauge(cluster_text, "repro_cluster_sign_tables") >= 2
        assert gauge(cluster_text, "repro_cluster_sign_table_bytes") >= 2 * 8 * 127
