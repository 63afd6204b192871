"""Tests for the engine's service-backed synopses."""

import pytest

from repro.core.hashing import stable_seed_offset
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.data import synthetic
from repro.engine import Catalog, Optimizer, SynopsisManager
from repro.engine.query import JoinQuery
from repro.errors import EngineError
from repro.service import EstimationService


@pytest.fixture
def catalog(rng, domain_2d):
    catalog = Catalog(domain_2d)
    for name in ("R", "S", "T"):
        catalog.create(name, boxes=synthetic.generate_rectangles(120, domain_2d,
                                                                 rng=rng))
    return catalog


class TestSynopsisManagerService:
    def test_matches_a_direct_join_estimator(self, rng, catalog, domain_2d):
        """Sharded, service-backed estimates equal one in-process estimator
        per pair fed the same inserts and deletes."""
        synopses = SynopsisManager(domain_2d, num_instances=64, seed=9)
        pairs = [(catalog.get("R"), catalog.get("S")),
                 (catalog.get("S"), catalog.get("T"))]
        synopses.estimated_join_cardinalities(pairs)
        extra = synthetic.generate_rectangles(30, domain_2d, rng=rng)
        catalog.get("S").insert(extra)
        catalog.get("S").delete(extra[:10])
        for left, right in pairs:
            direct = SpatialJoinEstimator(
                domain_2d, 64, seed=9 + stable_seed_offset((left.name, right.name)))
            direct.insert_left(left.boxes())
            direct.insert_right(right.boxes())
            expected = max(0.0, direct.estimate().estimate)
            assert synopses.estimated_join_cardinality(left, right) == expected
            assert synopses.estimated_join_cardinalities([(left, right)]) == [expected]

    def test_mutations_flow_through_service(self, rng, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=32, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        view = synopses.join_sketch(left, right)
        assert view.left_count == 120
        extra = synthetic.generate_rectangles(30, domain_2d, rng=rng)
        left.insert(extra)
        assert synopses.join_sketch(left, right).left_count == 150
        left.delete(extra)
        assert synopses.join_sketch(left, right).left_count == 120

    def test_optimizer_runs_on_service_synopses(self, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=32, seed=1)
        optimizer = Optimizer(catalog, synopses)
        plan = optimizer.plan_join(JoinQuery(("R", "S", "T")))
        assert set(plan.order) == {"R", "S", "T"}
        assert plan.estimated_cost >= 0.0

    def test_empty_relation_short_circuits(self, catalog, domain_2d):
        catalog.create("empty")
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        assert synopses.estimated_join_cardinality(catalog.get("empty"),
                                                   catalog.get("R")) == 0.0

    def test_self_join_rejected(self, catalog, domain_2d):
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=1)
        with pytest.raises(EngineError):
            synopses.join_sketch_name(catalog.get("R"), catalog.get("R"))

    def test_sketch_views_are_snapshots(self, rng, catalog, domain_2d):
        """A view handed out before a mutation keeps its counts."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        join_view = synopses.join_sketch(left, right)
        left.insert(synthetic.generate_rectangles(10, domain_2d, rng=rng))
        assert join_view.left_count == 120
        assert synopses.join_sketch(left, right).left_count == 130

    def test_shared_external_service(self, catalog, domain_2d):
        """Several catalogs' synopses can live inside one service process."""
        service = EstimationService(num_shards=2)
        synopses = SynopsisManager(domain_2d, service=service, num_instances=16,
                                   seed=4)
        synopses.estimated_join_cardinality(catalog.get("R"), catalog.get("S"))
        assert any(name.startswith("join::R::S") for name in service.names())
        assert synopses.service is service

    def test_managers_sharing_a_service_count_each_mutation_once(
            self, rng, catalog, domain_2d):
        """Two managers probing the same pair on one service attach one
        listener between them, so the shared sketch sees each box once."""
        service = EstimationService(num_shards=2)
        first, second = (SynopsisManager(domain_2d, service=service,
                                         num_instances=16, seed=4)
                         for _ in range(2))
        left, right = catalog.get("R"), catalog.get("S")
        first.estimated_join_cardinality(left, right)
        second.estimated_join_cardinality(left, right)
        left.insert(synthetic.generate_rectangles(10, domain_2d, rng=rng))
        assert len(left) == 130
        assert first.join_sketch(left, right).left_count == 130
        assert second.join_sketch(left, right).left_count == 130

    def test_adopts_estimators_of_a_restored_service(self, catalog, domain_2d):
        """A snapshot-restored service must be usable by fresh synopses."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        expected = synopses.estimated_join_cardinality(left, right)
        restored = EstimationService.restore(synopses.service.snapshot())
        resumed = SynopsisManager(domain_2d, service=restored,
                                  num_instances=16, seed=2)
        assert resumed.estimated_join_cardinality(left, right) == expected
        # ... and the adopted estimator keeps tracking relation mutations.
        assert resumed.join_sketch(left, right).left_count == len(left)

    def test_from_snapshot_boots_from_a_binary_checkpoint(self, catalog,
                                                          domain_2d, tmp_path):
        """Optimizer synopses come back from a v2 snapshot file directly."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=2)
        left, right = catalog.get("R"), catalog.get("S")
        expected = synopses.estimated_join_cardinality(left, right)
        path = tmp_path / "synopses.snap"
        synopses.service.save(path)  # auto -> binary v2
        resumed = SynopsisManager.from_snapshot(path, domain_2d,
                                                num_instances=16, seed=2)
        assert resumed.estimated_join_cardinality(left, right) == expected

    def test_sketch_seeds_are_process_independent(self, catalog, domain_2d):
        """Sketch seeds must not depend on PYTHONHASHSEED or on creation order
        (snapshots outlive the process, and the seed decides merge
        compatibility)."""
        synopses = SynopsisManager(domain_2d, num_instances=16, seed=5)
        left, right = catalog.get("R"), catalog.get("S")
        service = synopses.service
        assert (service.spec(synopses.join_sketch_name(left, right)).seed
                == 5 + stable_seed_offset(("R", "S")))
        assert stable_seed_offset(("R", "S")) != stable_seed_offset(("S", "R"))
