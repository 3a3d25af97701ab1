"""Unit tests for repro.simulator.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.rng import RngStream, derive_seed, make_rng


class TestMakeRng:
    def test_seed_reproducible(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen

    def test_none_uses_default_seed(self):
        assert make_rng(None).integers(0, 10**9) == make_rng(None).integers(0, 10**9)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, 2) != derive_seed(2, 2)

    def test_result_in_int63(self):
        s = derive_seed(123456789, "x", 42)
        assert 0 <= s < 2**63 - 1


class TestRngStream:
    def test_same_label_same_generator(self):
        stream = RngStream(9)
        assert stream.get("x", 1) is stream.get("x", 1)

    def test_different_labels_independent(self):
        stream = RngStream(9)
        a = stream.get("x").integers(0, 2**31)
        b = stream.get("y").integers(0, 2**31)
        assert a != b

    def test_reproducible_across_instances(self):
        a = RngStream(11).get("exp", 256).integers(0, 2**31)
        b = RngStream(11).get("exp", 256).integers(0, 2**31)
        assert a == b

    def test_seeds_list(self):
        stream = RngStream(5)
        seeds = stream.seeds(4, "rep")
        assert len(seeds) == 4
        assert len(set(seeds)) == 4

    def test_not_iterable(self):
        with pytest.raises(TypeError):
            iter(RngStream(1))
