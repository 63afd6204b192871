"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.data import synthetic
from repro.geometry.boxset import BoxSet


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def domain_1d() -> Domain:
    return Domain(256)


@pytest.fixture
def domain_2d() -> Domain:
    return Domain.square(256, dimension=2)


@pytest.fixture
def small_intervals(rng, domain_1d) -> tuple[BoxSet, BoxSet]:
    left = synthetic.generate_intervals(60, domain_1d, mean_length=20, rng=rng)
    right = synthetic.generate_intervals(60, domain_1d, mean_length=20, rng=rng)
    return left, right


@pytest.fixture
def small_rectangles(rng, domain_2d) -> tuple[BoxSet, BoxSet]:
    left = synthetic.generate_rectangles(50, domain_2d, rng=rng)
    right = synthetic.generate_rectangles(50, domain_2d, rng=rng)
    return left, right


def random_boxes(rng: np.random.Generator, count: int, domain_size: int,
                 dimension: int, *, max_extent: int | None = None,
                 allow_degenerate: bool = False) -> BoxSet:
    """Utility used by several test modules to build random box sets."""
    if max_extent is None:
        max_extent = max(2, domain_size // 4)
    lows = rng.integers(0, domain_size - 1, size=(count, dimension))
    extents = rng.integers(0 if allow_degenerate else 1, max_extent, size=(count, dimension))
    highs = np.minimum(lows + extents, domain_size - 1)
    lows = np.minimum(lows, highs)
    return BoxSet(lows, highs)
