"""Tests for the analysis toolkit: theory, fitting, statistics, lower bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    adversarial_push_max_messages,
    best_shape,
    bootstrap_mean_ci,
    fit_shape,
    knowledge_spread_after,
    power_law_exponent,
    summarize,
    theory,
    whp_satisfied,
    wilson_interval,
)


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

    def test_table1_rows_structure(self):
        assert set(theory.TABLE1_ROWS) == {
            "efficient gossip [Kashyap et al.]",
            "uniform gossip [Kempe et al.]",
            "DRR-gossip [this paper]",
        }
        for name, row in theory.TABLE1_ROWS.items():
            assert len(row) == 5
            assert row[2] in ("yes", "no")

    def test_paper_gossip_max_rounds(self):
        assert theory.paper_gossip_max_rounds(1024) >= 8 * math.log2(1024)
        assert theory.paper_gossip_max_rounds(1024, delta=0.1) > theory.paper_gossip_max_rounds(1024)
        with pytest.raises(ValueError):
            theory.paper_gossip_max_rounds(1024, c=0.9)


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


class TestStatistics:
    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)
        assert stats.count == 4
        assert "mean" in stats.as_dict()

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_wilson_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(90, 100)
        assert lo < 0.9 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_interval_zero_failures_not_degenerate(self):
        lo, hi = wilson_interval(20, 20)
        assert lo < 1.0
        assert hi == 1.0

    def test_wilson_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(10, 5)

    def test_whp_satisfied(self):
        assert whp_satisfied(100, 100, target=0.9)
        assert not whp_satisfied(5, 10, target=0.9)

    def test_bootstrap_ci_covers_mean(self, rng):
        samples = rng.normal(10.0, 1.0, size=200)
        lo, hi = bootstrap_mean_ci(samples, rng)
        assert lo < samples.mean() < hi
        with pytest.raises(ValueError):
            bootstrap_mean_ci([], rng)


class TestLowerBound:
    def test_knowledge_spread_after_zero_rounds(self):
        spread = knowledge_spread_after(32, 0, rng=1)
        assert np.allclose(spread, 1.0 / 32)

    def test_knowledge_spread_matches_ufunc_at_reference(self):
        # reference push round: one ufunc.at over the pre-round snapshot
        n, rounds = 200, 12
        rng = np.random.default_rng(7)
        knowledge = np.eye(n, dtype=bool)
        for _ in range(rounds):
            np.logical_or.at(knowledge, rng.integers(0, n, size=n), knowledge.copy())
        assert np.array_equal(knowledge_spread_after(n, rounds, rng=7), knowledge.mean(axis=0))

    def test_knowledge_grows_with_rounds(self):
        early = knowledge_spread_after(64, 2, rng=2).min()
        late = knowledge_spread_after(64, 10, rng=2).min()
        assert late >= early

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
        with pytest.raises(ValueError):
            knowledge_spread_after(1, 3)
