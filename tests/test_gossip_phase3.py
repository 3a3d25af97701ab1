"""Tests for Phase III: Gossip-max, Gossip-ave, Data-spread."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    run_convergecast,
    run_data_spread,
    run_drr,
    run_gossip_ave,
    run_gossip_max,
)
from repro.core.drr_gossip import DRRGossipConfig, broadcast_root_addresses
from repro.simulator import FailureModel, MetricsCollector


def make_phase3_inputs(n=512, seed=31, delta=0.0, value_scale=100.0):
    """Run Phases I and II so Phase III can be tested in isolation."""
    rng = np.random.default_rng(seed)
    fm = FailureModel(loss_probability=delta)
    values = rng.uniform(0.0, value_scale, size=n)
    drr = run_drr(n, rng=rng, failure_model=fm)
    roots = drr.forest.roots
    cov_max = run_convergecast(drr, values, op="max", failure_model=fm, rng=rng)
    cov_sum = run_convergecast(drr, values, op="sum", failure_model=fm, rng=rng)
    metrics = MetricsCollector(n=n)
    root_of = broadcast_root_addresses(drr, roots, rng, DRRGossipConfig(failure_model=fm), metrics)
    return dict(
        n=n,
        rng=rng,
        fm=fm,
        values=values,
        drr=drr,
        roots=roots,
        cov_max=cov_max,
        cov_sum=cov_sum,
        root_of=root_of,
    )


class TestGossipMax:
    def test_all_roots_learn_max_on_reliable_network(self):
        ctx = make_phase3_inputs()
        result = run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert result.all_roots_agree()
        assert result.consensus_value() == pytest.approx(ctx["values"].max())

    def test_gossip_fraction_monotone_story(self):
        ctx = make_phase3_inputs()
        result = run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        # Theorem 5: after the gossip procedure a constant fraction of roots
        # already holds the maximum.
        assert result.after_gossip_fraction > 0.2

    def test_message_count_linear_in_n(self):
        ctx = make_phase3_inputs(n=1024)
        metrics = MetricsCollector(n=1024)
        run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
            metrics=metrics,
        )
        # Phase III is O(n) messages: allow a generous constant but far below n log n.
        assert metrics.total_messages < 14 * 1024

    def test_rounds_budget_used(self):
        ctx = make_phase3_inputs(n=256)
        result = run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
            gossip_rounds=5,
            sampling_rounds=3,
        )
        assert result.gossip_rounds == 5
        assert result.sampling_rounds == 3

    def test_lossy_network_still_reaches_consensus_whp(self):
        ctx = make_phase3_inputs(delta=0.1, seed=32)
        result = run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            failure_model=ctx["fm"],
            rng=ctx["rng"],
        )
        values = np.array(list(result.estimates.values()))
        top = ctx["cov_max"].value_vector(ctx["roots"]).max()
        assert np.mean(values >= top) > 0.95

    def test_input_validation(self):
        ctx = make_phase3_inputs(n=64)
        with pytest.raises(ValueError):
            run_gossip_max(
                roots=np.array([], dtype=np.int64),
                root_values=np.array([]),
                root_of=ctx["root_of"],
                n=64,
            )
        with pytest.raises(ValueError):
            run_gossip_max(
                roots=ctx["roots"],
                root_values=np.zeros(1),
                root_of=ctx["root_of"],
                n=64,
            )
        with pytest.raises(ValueError):
            run_gossip_max(
                roots=ctx["roots"],
                root_values=ctx["cov_max"].value_vector(ctx["roots"]),
                root_of=np.zeros(3, dtype=np.int64),
                n=64,
            )


class TestGossipAve:
    def test_largest_root_estimate_close_to_true_average(self):
        ctx = make_phase3_inputs()
        largest = ctx["drr"].forest.largest_root()
        result = run_gossip_ave(
            roots=ctx["roots"],
            local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
            local_weights=ctx["cov_sum"].weight_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
            trace_root=largest,
        )
        truth = ctx["values"].mean()
        assert result.estimate_at(largest) == pytest.approx(truth, rel=1e-3)
        assert len(result.history) == result.rounds

    def test_mass_conservation_without_loss(self):
        ctx = make_phase3_inputs()
        result = run_gossip_ave(
            roots=ctx["roots"],
            local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
            local_weights=ctx["cov_sum"].weight_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert sum(result.sums.values()) == pytest.approx(ctx["values"].sum(), rel=1e-9)
        assert sum(result.weights.values()) == pytest.approx(ctx["n"], rel=1e-9)

    def test_loss_only_removes_mass(self):
        ctx = make_phase3_inputs(delta=0.2, seed=33)
        result = run_gossip_ave(
            roots=ctx["roots"],
            local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
            local_weights=ctx["cov_sum"].weight_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            failure_model=ctx["fm"],
            rng=ctx["rng"],
        )
        assert sum(result.weights.values()) <= ctx["n"] + 1e-9
        # the ratio estimate at the largest root survives loss well
        largest = ctx["drr"].forest.largest_root()
        truth = ctx["values"].mean()
        assert abs(result.estimate_at(largest) - truth) / truth < 0.2

    def test_unit_weight_variant_estimates_sum(self):
        ctx = make_phase3_inputs()
        largest = ctx["drr"].forest.largest_root()
        weights = (ctx["roots"] == largest).astype(float)
        result = run_gossip_ave(
            roots=ctx["roots"],
            local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
            local_weights=weights,
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert result.estimate_at(largest) == pytest.approx(ctx["values"].sum(), rel=1e-3)

    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_float32_inputs_accumulate_in_float64(self, backend):
        """Narrow (s, g) inputs are widened once and folded at float64 precision."""
        ctx = make_phase3_inputs(n=256)
        sums = ctx["cov_sum"].value_vector(ctx["roots"]).astype(np.float32)
        weights = ctx["cov_sum"].weight_vector(ctx["roots"]).astype(np.float32)
        narrow, wide = (
            run_gossip_ave(
                roots=ctx["roots"],
                local_sums=s,
                local_weights=g,
                root_of=ctx["root_of"],
                n=ctx["n"],
                rng=np.random.default_rng(5),
                backend=backend,
            )
            for s, g in ((sums, weights), (sums.astype(np.float64), weights.astype(np.float64)))
        )
        assert narrow.sums == wide.sums
        assert narrow.weights == wide.weights
        # mass is conserved to float64 rounding; a float32 fold drifts ~1e-7
        total = float(sums.astype(np.float64).sum())
        assert sum(narrow.sums.values()) == pytest.approx(total, rel=1e-12)
        assert sum(narrow.weights.values()) == pytest.approx(ctx["n"], rel=1e-12)

    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_trace_root_must_be_a_root(self, backend):
        """A non-root trace_root used to trace another root's estimate."""
        roots = np.array([3, 10, 20, 40])
        with pytest.raises(ValueError, match="trace_root 7 is not one of the roots"):
            run_gossip_ave(
                roots=roots,
                local_sums=np.array([1.0, 2.0, 3.0, 4.0]),
                local_weights=np.ones(4),
                root_of=roots[np.arange(50) % 4],
                n=50,
                rng=0,
                rounds=5,
                trace_root=7,
                backend=backend,
            )

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("short", r"root_of must have shape \(50,\)"),
            ("below -1", "root_of entries must be node ids below 50, or -1"),
            ("id n", "root_of entries must be node ids below 50, or -1"),
        ],
    )
    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_root_of_is_validated(self, backend, bad, message):
        """A short table used to fail with an IndexError inside the round loop."""
        roots = np.array([3, 10, 20, 40])
        root_of = roots[np.arange(50) % 4]
        if bad == "short":
            root_of = root_of[:45]
        else:
            root_of[7] = -2 if bad == "below -1" else 50
        with pytest.raises(ValueError, match=message):
            run_gossip_ave(
                roots=roots,
                local_sums=np.array([1.0, 2.0, 3.0, 4.0]),
                local_weights=np.ones(4),
                root_of=root_of,
                n=50,
                rng=0,
                rounds=5,
                backend=backend,
            )

    def test_weight_validation(self):
        ctx = make_phase3_inputs(n=64)
        with pytest.raises(ValueError):
            run_gossip_ave(
                roots=ctx["roots"],
                local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
                local_weights=-np.ones(ctx["roots"].size),
                root_of=ctx["root_of"],
                n=64,
            )
        with pytest.raises(ValueError):
            run_gossip_ave(
                roots=ctx["roots"],
                local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
                local_weights=np.zeros(ctx["roots"].size),
                root_of=ctx["root_of"],
                n=64,
            )


class TestDataSpread:
    def test_value_reaches_every_root(self):
        ctx = make_phase3_inputs()
        spreader = int(ctx["roots"][0])
        result = run_data_spread(
            roots=ctx["roots"],
            spreader=spreader,
            value=123.456,
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert all(v == pytest.approx(123.456) for v in result.estimates.values())

    def test_requires_finite_value_and_valid_spreader(self):
        ctx = make_phase3_inputs(n=64)
        with pytest.raises(ValueError):
            run_data_spread(ctx["roots"], int(ctx["roots"][0]), float("inf"), ctx["root_of"], 64)
        non_root = int(np.flatnonzero(ctx["drr"].forest.parent >= 0)[0])
        with pytest.raises(ValueError):
            run_data_spread(ctx["roots"], non_root, 1.0, ctx["root_of"], 64)


class TestPhase3Properties:
    @given(st.integers(min_value=16, max_value=256), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_gossip_max_consensus_equals_root_max(self, n, seed):
        ctx = make_phase3_inputs(n=n, seed=seed)
        result = run_gossip_max(
            roots=ctx["roots"],
            root_values=ctx["cov_max"].value_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert result.consensus_value() == pytest.approx(
            float(ctx["cov_max"].value_vector(ctx["roots"]).max())
        )

    @given(st.integers(min_value=16, max_value=200), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_push_sum_mass_is_conserved_for_any_seed(self, n, seed):
        ctx = make_phase3_inputs(n=n, seed=seed)
        result = run_gossip_ave(
            roots=ctx["roots"],
            local_sums=ctx["cov_sum"].value_vector(ctx["roots"]),
            local_weights=ctx["cov_sum"].weight_vector(ctx["roots"]),
            root_of=ctx["root_of"],
            n=ctx["n"],
            rng=ctx["rng"],
        )
        assert sum(result.weights.values()) == pytest.approx(n, rel=1e-9)
