"""Tests for the analysis toolkit: theory, fitting, lower bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    adversarial_push_max_messages,
    best_shape,
    fit_shape,
    power_law_exponent,
    theory,
)
from repro.analysis.lower_bound import _push_round


class TestTheory:
    def test_log_helpers(self):
        assert float(theory.log2n(1024)) == pytest.approx(10.0)
        assert float(theory.loglog2n(2**16)) == pytest.approx(4.0)
        assert float(theory.loglog2n(2)) == 1.0

    def test_bound_monotonicity(self):
        ns = np.array([2**8, 2**10, 2**12, 2**14])
        for fn in (
            theory.expected_tree_count,
            theory.drr_message_bound,
            theory.uniform_gossip_message_bound,
            theory.chord_uniform_gossip_messages,
        ):
            vals = fn(ns)
            assert np.all(np.diff(vals) > 0)

    def test_drr_bound_smaller_than_uniform_bound(self):
        n = 2**14
        assert theory.drr_message_bound(n) < theory.uniform_gossip_message_bound(n)


class TestFitting:
    def test_fit_recovers_linear_relationship(self):
        ns = np.array([256, 512, 1024, 2048, 4096])
        y = 3.0 * np.log2(ns) + 2.0
        fit = fit_shape(ns, y, "log n")
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared > 0.999

    def test_best_shape_distinguishes_logn_from_loglogn(self):
        ns = np.array([2**8, 2**10, 2**12, 2**14, 2**16, 2**18])
        log_curve = 5.0 * np.log2(ns)
        loglog_curve = 5.0 * np.log2(np.log2(ns))
        assert best_shape(ns, log_curve, candidates=["constant", "loglog n", "log n"]).shape_name == "log n"
        assert (
            best_shape(ns, loglog_curve, candidates=["constant", "loglog n", "log n"]).shape_name
            == "loglog n"
        )

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            fit_shape([1, 2], [1, 2], "exp n")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_shape([1], [1], "log n")

    def test_power_law_exponent(self):
        ns = np.array([128, 256, 512, 1024, 2048])
        assert power_law_exponent(ns, 7.0 * ns**1.0) == pytest.approx(1.0, abs=1e-6)
        assert power_law_exponent(ns, 0.5 * ns**2.0) == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(ValueError):
            power_law_exponent(ns, np.zeros_like(ns))

    @given(st.floats(min_value=0.1, max_value=50), st.floats(min_value=-10, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_fit_roundtrip_property(self, slope, intercept):
        ns = np.array([2**8, 2**10, 2**12, 2**14])
        y = slope * np.log2(ns) + intercept
        fit = fit_shape(ns, y, "log n")
        assert fit.slope == pytest.approx(slope, rel=1e-6, abs=1e-6)


class TestLowerBound:
    def test_push_round_matches_ufunc_at_reference(self):
        # reference push round: one ufunc.at over the pre-round snapshot
        n, rounds = 200, 12
        rng = np.random.default_rng(7)
        knowledge = np.eye(n, dtype=bool)
        reference = knowledge.copy()
        for _ in range(rounds):
            targets = rng.integers(0, n, size=n)
            np.logical_or.at(reference, targets, reference.copy())
            _push_round(knowledge, targets)
        assert np.array_equal(knowledge, reference)

    def test_adversarial_messages_exceed_half_n_log_n(self):
        n = 256
        result = adversarial_push_max_messages(n, rng=3)
        assert result.messages_to_target >= 0.4 * n * math.log2(n)

    def test_adversarial_messages_grow_superlinearly(self):
        small = adversarial_push_max_messages(128, rng=4).messages_to_target / 128
        large = adversarial_push_max_messages(1024, rng=4).messages_to_target / 1024
        assert large > small

    def test_curve_is_monotone_nondecreasing(self):
        result = adversarial_push_max_messages(128, rng=5)
        assert np.all(np.diff(result.curve) >= -1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            adversarial_push_max_messages(1)
