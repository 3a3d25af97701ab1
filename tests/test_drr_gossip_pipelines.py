"""Integration tests for the full DRR-gossip pipelines (Algorithms 7 and 8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Aggregate,
    DRRGossipConfig,
    drr_gossip,
    drr_gossip_average,
    drr_gossip_count,
    drr_gossip_max,
    drr_gossip_min,
    drr_gossip_rank,
    drr_gossip_sum,
)
from repro.simulator import FailureModel


class TestExactAggregates:
    def test_max_every_node_learns_exact_value(self, small_values):
        result = drr_gossip_max(small_values, rng=1)
        assert result.all_correct
        assert result.coverage == 1.0
        assert result.exact == pytest.approx(500.0)
        assert np.all(result.estimates[result.learned] == 500.0)

    def test_min_every_node_learns_exact_value(self, small_values):
        result = drr_gossip_min(small_values, rng=2)
        assert result.all_correct
        assert result.exact == pytest.approx(-500.0)

    def test_count_is_exact(self, small_values):
        result = drr_gossip_count(small_values, rng=3)
        assert result.all_correct
        assert result.exact == 256

    def test_rank_is_exact_for_median_query(self, small_values):
        query = float(np.median(small_values))
        result = drr_gossip_rank(small_values, query=query, rng=4)
        truth = float(np.sum(small_values <= query))
        assert result.exact == truth
        assert result.all_correct


class TestConvergentAggregates:
    def test_average_small_relative_error(self, small_values):
        result = drr_gossip_average(small_values, rng=5)
        assert result.coverage == 1.0
        assert result.max_relative_error < 1e-3

    def test_sum_small_relative_error(self, small_values):
        result = drr_gossip_sum(small_values, rng=6)
        assert result.max_relative_error < 1e-3
        assert result.exact == pytest.approx(small_values.sum())

    def test_average_of_negative_values(self, rng):
        values = -np.abs(rng.normal(40, 5, size=300))
        result = drr_gossip_average(values, rng=7)
        assert result.max_relative_error < 1e-3

    def test_average_of_mixed_sign_values(self, rng):
        values = rng.normal(0.0, 10.0, size=300) + 5.0
        result = drr_gossip_average(values, rng=8)
        assert result.max_relative_error < 1e-2


class TestGenericDispatch:
    @pytest.mark.parametrize(
        "aggregate", [Aggregate.MAX, Aggregate.MIN, Aggregate.AVERAGE, Aggregate.SUM, Aggregate.COUNT]
    )
    def test_dispatch_matches_specific_functions(self, aggregate, tiny_values):
        result = drr_gossip(tiny_values, aggregate, rng=11)
        assert result.aggregate == aggregate
        assert result.n == tiny_values.size

    def test_dispatch_accepts_strings(self, tiny_values):
        result = drr_gossip(tiny_values, "max", rng=12)
        assert result.aggregate == Aggregate.MAX

    def test_rank_via_dispatch_uses_query(self, tiny_values):
        result = drr_gossip(tiny_values, Aggregate.RANK, rng=13, query=0.5)
        assert result.exact == float(np.sum(tiny_values <= 0.5))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            drr_gossip_max(np.array([]), rng=1)


class TestResultObject:
    def test_metrics_phases_present(self, tiny_values):
        result = drr_gossip_max(tiny_values, rng=14)
        phases = result.messages_by_phase()
        for expected in ("drr", "convergecast", "broadcast-root", "gossip-max", "broadcast-final"):
            assert expected in phases
        assert result.messages == sum(phases.values())
        assert result.rounds == sum(result.rounds_by_phase().values())

    def test_average_pipeline_has_extra_phases(self, tiny_values):
        result = drr_gossip_average(tiny_values, rng=15)
        phases = result.messages_by_phase()
        for expected in ("gossip-max-sizes", "gossip-ave", "data-spread"):
            assert expected in phases

    def test_forest_exposed(self, tiny_values):
        result = drr_gossip_max(tiny_values, rng=16)
        assert result.drr.forest.n == tiny_values.size
        result.drr.forest.validate()

    def test_root_estimates_cover_all_roots(self, tiny_values):
        result = drr_gossip_max(tiny_values, rng=17)
        assert set(result.root_estimates) == set(result.drr.forest.roots.tolist())


class TestConfig:
    def test_custom_round_budgets_respected(self, tiny_values):
        config = DRRGossipConfig(gossip_rounds=3, sampling_rounds=2, ave_rounds=5, probe_budget=2)
        result = drr_gossip_average(tiny_values, rng=18, config=config)
        assert result.rounds_by_phase()["gossip-ave"] == 5
        assert result.drr.rounds <= 2

    def test_with_failures_builder(self):
        base = DRRGossipConfig(gossip_rounds=7)
        fm = FailureModel(loss_probability=0.1)
        derived = base.with_failures(fm)
        assert derived.gossip_rounds == 7
        assert derived.failure_model is fm

    def test_engine_backend_gives_identical_answers(self, tiny_values):
        fast = drr_gossip_max(tiny_values, rng=19)
        engine = drr_gossip_max(tiny_values, rng=19, config=DRRGossipConfig(backend="engine"))
        assert fast.exact == engine.exact
        assert engine.all_correct
        assert fast.messages == engine.messages
        assert fast.rounds == engine.rounds
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)

    def test_deterministic_given_seed(self, tiny_values):
        a = drr_gossip_average(tiny_values, rng=20)
        b = drr_gossip_average(tiny_values, rng=20)
        assert np.array_equal(a.estimates, b.estimates, equal_nan=True)
        assert a.messages == b.messages


class TestComplexityShape:
    def test_fewer_messages_than_uniform_gossip(self):
        from repro.baselines import push_max

        n = 4096
        values = np.random.default_rng(0).uniform(0, 1, size=n)
        drr = drr_gossip_max(values, rng=21)
        uniform = push_max(values, rng=21)
        # The paper's claim is asymptotic (O(n log log n) vs O(n log n)); at
        # n = 4096 the implemented constants already put DRR-gossip clearly
        # below the uniform-gossip baseline.
        assert drr.messages < 0.75 * uniform.messages

    def test_rounds_logarithmic(self):
        n = 4096
        values = np.random.default_rng(0).uniform(0, 1, size=n)
        result = drr_gossip_max(values, rng=22)
        assert result.rounds < 25 * np.log2(n)


class TestPipelineProperties:
    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_max_pipeline_correct_for_any_size_and_seed(self, n, seed):
        values = np.random.default_rng(seed).normal(size=n)
        result = drr_gossip_max(values, rng=seed)
        assert result.all_correct
        assert result.coverage == 1.0

    @given(
        st.integers(min_value=8, max_value=150),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_average_pipeline_bounded_error_for_any_seed(self, n, seed):
        values = np.random.default_rng(seed).uniform(1.0, 2.0, size=n)
        result = drr_gossip_average(values, rng=seed)
        assert result.max_relative_error < 0.01
