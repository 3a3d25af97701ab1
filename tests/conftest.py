"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.substrate import BACKENDS
from repro.substrate import compiled as compiled_mod


@contextlib.contextmanager
def compiled_loops_registered():
    """Register ``compiled`` with its loops live, interpreted if numba is missing.

    Without numba, ``njit`` is the identity and ``prange`` is ``range``, so
    the kernel's loops are plain Python functions.  Setting
    ``NUMBA_AVAILABLE`` routes every kernel override and the installed loss
    and churn hashers through them — the code numba compiles, run slowly
    but bit for bit — instead of through the NumPy fallbacks.  With numba
    installed this only makes sure the backend is registered.
    """
    if compiled_mod.NUMBA_AVAILABLE:
        compiled_mod.register()
        yield BACKENDS["compiled"]
        return
    compiled_mod.NUMBA_AVAILABLE = True
    try:
        compiled_mod.register()
        with np.errstate(over="ignore"):  # the uint64 hash chain wraps by design
            yield BACKENDS["compiled"]
    finally:
        compiled_mod.NUMBA_AVAILABLE = False
        compiled_mod.deregister()


@pytest.fixture
def compiled_kernel():
    """The ``compiled`` kernel with its loops live for this test."""
    with compiled_loops_registered() as kernel:
        yield kernel


@pytest.fixture
def backend(request):
    """The backend named by an indirect ``backend`` parameter.

    ``compiled`` runs on every machine: its loops are interpreted where
    numba is missing (see :func:`compiled_loops_registered`).
    """
    if request.param == "compiled":
        with compiled_loops_registered():
            yield request.param
    else:
        yield request.param


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
