"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, fixed-seed generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_values(rng) -> np.ndarray:
    """A small value vector with a unique maximum and minimum."""
    values = rng.normal(50.0, 10.0, size=256)
    values[17] = 500.0  # unique max
    values[101] = -500.0  # unique min
    return values


@pytest.fixture
def tiny_values(rng) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=64)
