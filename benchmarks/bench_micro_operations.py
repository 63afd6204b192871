"""Micro-benchmarks of the core operations (timed with pytest-benchmark).

These are conventional throughput benchmarks: sketch maintenance cost per
object, estimation latency, exact-join algorithms and the xi-family
generator.  They complement the figure benchmarks (which regenerate the
paper's plots) by tracking the constants of the implementation.
"""

import numpy as np
import pytest

from repro.core.atomic import Letter, SketchBank, all_words
from repro.core.domain import Domain
from repro.core.hashing import FourWiseFamilyBank
from repro.core.join_hyperrect import SpatialJoinEstimator
from repro.data import synthetic
from repro.exact.rectangle_join import brute_force_join_count, plane_sweep_join_count


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(5)
    domain = Domain.square(4096, dimension=2).with_max_level(6)
    left = synthetic.generate_rectangles(2000, Domain.square(4096, 2), rng=rng)
    right = synthetic.generate_rectangles(2000, Domain.square(4096, 2), rng=rng)
    return domain, left, right


def test_bench_xi_sign_generation(benchmark):
    bank = FourWiseFamilyBank(256, 8191, seed=1)
    ids = np.arange(8191)
    benchmark(lambda: bank.signs(ids))


def test_bench_sketch_bank_insert(benchmark, workload):
    domain, left, _ = workload
    words = all_words([Letter.INTERVAL, Letter.ENDPOINTS], 2)

    def build():
        bank = SketchBank(domain, words, num_instances=128, seed=3)
        bank.insert(left)
        return bank

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_bench_streaming_update(benchmark, workload):
    domain, left, right = workload
    estimator = SpatialJoinEstimator(domain, num_instances=128, seed=3)
    estimator.update("left", left)
    estimator.update("right", right)
    single = left[:1]

    def update():
        estimator.update("left", single)
        estimator.update("left", single, -1.0)

    benchmark(update)


def test_bench_estimate_latency(benchmark, workload):
    domain, left, right = workload
    estimator = SpatialJoinEstimator(domain, num_instances=256, seed=3)
    estimator.update("left", left)
    estimator.update("right", right)
    benchmark(lambda: estimator.estimate().estimate)


def test_bench_plane_sweep_join(benchmark, workload):
    _, left, right = workload
    result = benchmark.pedantic(lambda: plane_sweep_join_count(left, right),
                                rounds=3, iterations=1)
    assert result == brute_force_join_count(left, right)


def test_bench_brute_force_join(benchmark, workload):
    _, left, right = workload
    benchmark.pedantic(lambda: brute_force_join_count(left, right), rounds=3, iterations=1)
