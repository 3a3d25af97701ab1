"""Tests for the baseline protocols (Kempe, Kashyap, Karp, flooding)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    default_push_rounds,
    efficient_gossip,
    flood_max,
    push_max,
    push_pull_rumor,
    push_rumor,
    push_sum,
)
from repro.core import Aggregate
from repro.simulator import FailureModel
from repro.simulator.failures import ChurnOracle, LossOracle
from repro.simulator.message import MessageKind
from repro.simulator.metrics import MetricsCollector
from repro.simulator.rng import make_rng
from repro.substrate import deliver_batch, sample_uniform
from repro.topology import grid_graph, ring_graph


class TestPushSum:
    def test_converges_to_average(self, rng):
        values = rng.uniform(0, 100, size=1024)
        result = push_sum(values, rng=1)
        assert result.max_relative_error < 1e-3
        assert result.exact == pytest.approx(values.mean())

    def test_message_complexity_n_log_n_shape(self):
        values = np.random.default_rng(0).uniform(size=2048)
        result = push_sum(values, rng=2)
        # n nodes push every round for Theta(log n) rounds
        assert result.messages == 2048 * result.rounds
        assert result.rounds >= math.log2(2048)

    def test_convergence_history_monotone_trend(self, rng):
        values = rng.uniform(0, 10, size=512)
        result = push_sum(values, rng=3)
        # the error after the last round is far below the error after round 1
        assert result.convergence[-1] < result.convergence[0] * 1e-2

    def test_default_rounds_grows_with_n(self):
        assert default_push_rounds(2**16) > default_push_rounds(2**8)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            push_sum(np.array([]))

    def test_engine_backend_is_identical_on_reliable_network(self, rng):
        values = rng.uniform(0, 10, size=128)
        fast = push_sum(values, rng=4)
        engine = push_sum(values, rng=4, backend="engine")
        assert fast.exact == engine.exact
        assert engine.max_relative_error < 0.05
        # same seed, same substrate RNG order: identical runs
        assert engine.messages == fast.messages
        assert np.array_equal(engine.estimates, fast.estimates, equal_nan=True)


def reference_push_sum(values: np.ndarray, seed: int, failure_model: FailureModel):
    """The columnar push-sum loop in its plainest spelling.

    Separate ``s`` and ``w`` arrays, one ``np.add.at`` each, a fresh
    ``np.where`` estimate and a ``nanmax`` error every round.  Set-up mirrors
    :func:`push_sum` (crashes, loss and churn oracles, default round budget),
    so both consume the same RNG stream.  Returns ``(estimates, convergence,
    exact, rounds, metrics)``.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    rng = make_rng(seed)
    metrics = MetricsCollector(n=n)
    metrics.begin_phase("push-sum")
    alive = ~failure_model.sample_crashes(n, rng)
    oracle = LossOracle.for_run(failure_model, rng)
    churn = ChurnOracle.for_run(failure_model, rng)
    rounds = default_push_rounds(n)

    s = np.where(alive, values, 0.0)
    w = alive.astype(float)
    exact = float(values[alive].mean())
    convergence = []
    alive_idx = np.flatnonzero(alive)
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    for r in range(rounds):
        if churn is not None:
            _, joined = churn.step(r, alive)
            s[joined] = values[joined]
            w[joined] = 1.0
            alive_idx = np.flatnonzero(alive)
        metrics.record_round()
        targets = sample_uniform(rng, n, alive_idx.size)
        send_s = s[alive_idx] / 2.0
        send_w = w[alive_idx] / 2.0
        s[alive_idx] -= send_s
        w[alive_idx] -= send_w
        delivered = deliver_batch(
            metrics, oracle, MessageKind.PUSH, targets,
            senders=alive_idx, round_index=r, alive=alive_arg, payload_words=2,
            dead_targets=churn is not None,
        )
        np.add.at(s, targets[delivered], send_s[delivered])
        np.add.at(w, targets[delivered], send_w[delivered])
        with np.errstate(invalid="ignore", divide="ignore"):
            est = np.where(w > 0, s / np.where(w > 0, w, 1.0), np.nan)
        if exact != 0:
            err = np.nanmax(np.abs(est[alive] - exact) / max(1e-300, abs(exact)))
        else:
            err = np.nanmax(np.abs(est[alive]))
        convergence.append(float(err))

    if churn is not None:
        exact = float(values[alive].mean())
    with np.errstate(invalid="ignore", divide="ignore"):
        estimates = np.where(w > 0, s / np.where(w > 0, w, 1.0), np.nan)
    estimates[~alive] = np.nan
    return estimates, convergence, exact, rounds, metrics


REFERENCE_MODELS = {
    "reliable": FailureModel(),
    "lossy": FailureModel(loss_probability=0.15),
    "crash": FailureModel(crash_fraction=0.2),
    "lossy+crash": FailureModel(loss_probability=0.1, crash_fraction=0.15),
    "churn": FailureModel(
        loss_probability=0.05,
        crash_fraction=0.05,
        churn_rate=0.01,
        join_rate=0.005,
        churn_schedule=((3, (2, 7), "crash"), (8, (2,), "join")),
    ),
}


def reference_values(kind: str, n: int) -> np.ndarray:
    if kind == "positive":
        return np.random.default_rng(n).uniform(0, 10, size=n)
    if kind == "mixed-sign":
        return np.random.default_rng(n + 1).normal(0, 5, size=n)
    if kind == "non-finite":
        # an infinite mass: halving must keep w finite (a complex product
        # would not), and inf - inf must give the same NaN bits
        values = np.random.default_rng(n + 2).uniform(0, 10, size=n)
        values[n // 2] = np.inf
        return values
    # symmetric integers or half-integers: the mean is exactly 0.0
    return np.arange(n, dtype=float) - (n - 1) / 2.0


class TestPushSumReference:
    """The vectorized loop reproduces :func:`reference_push_sum` bit for bit.

    The engine checks estimates and accounting across backends but produces
    no convergence history; this reference also pins ``convergence``
    (including its ``exact == 0`` branch), ``exact``, the n = 1 and n = 2
    edge cases, and an infinite input value.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["positive", "mixed-sign", "zero-mean", "non-finite"])
    @pytest.mark.parametrize("n", [1, 2, 300, 4096])
    @pytest.mark.parametrize("model", list(REFERENCE_MODELS))
    def test_vectorized_matches_reference(self, model, n, kind):
        fm = REFERENCE_MODELS[model]
        values = reference_values(kind, n)
        estimates, convergence, exact, rounds, metrics = reference_push_sum(values, 7, fm)
        result = push_sum(values, rng=7, failure_model=fm, backend="vectorized")
        assert result.estimates.tobytes() == estimates.tobytes()
        assert np.asarray(result.convergence).tobytes() == np.asarray(convergence).tobytes()
        assert result.exact == exact
        assert result.rounds == rounds
        assert result.messages == metrics.total_messages
        assert result.metrics.total_messages_lost == metrics.total_messages_lost
        if kind == "zero-mean" and not fm.crash_fraction:
            assert exact == 0.0


class TestPushMax:
    def test_everyone_learns_max(self, rng):
        values = rng.uniform(0, 100, size=1024)
        result = push_max(values, rng=5)
        assert result.all_correct

    def test_oracle_stopping_counts_fewer_messages(self, rng):
        values = rng.uniform(0, 100, size=1024)
        full = push_max(values, rng=6)
        oracle = push_max(values, rng=6, stop_when_converged=True)
        assert oracle.messages <= full.messages

    def test_convergence_curve_reaches_one(self, rng):
        values = rng.uniform(0, 100, size=512)
        result = push_max(values, rng=7)
        assert result.convergence[-1] == pytest.approx(1.0)


class TestEfficientGossip:
    def test_average_accuracy(self, rng):
        values = rng.uniform(0, 100, size=2048)
        result = efficient_gossip(values, Aggregate.AVERAGE, rng=8)
        assert result.max_relative_error < 0.01

    def test_max_and_min_exact_for_learned_nodes(self, rng):
        values = rng.uniform(0, 100, size=1024)
        for aggregate in (Aggregate.MAX, Aggregate.MIN):
            result = efficient_gossip(values, aggregate, rng=9)
            assert result.all_correct

    def test_group_sizes_logarithmic(self, rng):
        values = rng.uniform(0, 100, size=4096)
        result = efficient_gossip(values, Aggregate.AVERAGE, rng=10)
        assert result.group_count > 0
        assert result.max_group_size <= 30 * math.log2(4096)

    def test_time_complexity_has_loglog_factor(self, rng):
        # rounds should exceed the DRR-gossip style c*log n budget because of
        # the log log n grouping stages
        values = rng.uniform(0, 100, size=4096)
        result = efficient_gossip(values, Aggregate.AVERAGE, rng=11)
        assert result.rounds > 2 * math.log2(4096)

    def test_message_complexity_below_n_log_n(self, rng):
        n = 4096
        values = rng.uniform(0, 100, size=n)
        result = efficient_gossip(values, Aggregate.AVERAGE, rng=12)
        assert result.messages < 0.8 * n * math.log2(n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            efficient_gossip(np.array([]))


class TestRumorSpreading:
    def test_push_rumor_informs_everyone(self):
        result = push_rumor(2048, rng=13)
        assert result.everyone_informed

    def test_push_pull_informs_everyone_with_fewer_messages(self):
        n = 4096
        push_only = push_rumor(n, rng=14)
        push_pull = push_pull_rumor(n, rng=14)
        assert push_pull.everyone_informed
        assert push_pull.messages < push_only.messages

    def test_push_pull_messages_per_node_grow_slowly(self):
        small = push_pull_rumor(256, rng=15).messages / 256
        large = push_pull_rumor(8192, rng=15).messages / 8192
        # Theta(log log n): going from 2^8 to 2^13 should cost well under 2x
        assert large < 2.0 * small

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            push_rumor(0)
        with pytest.raises(ValueError):
            push_pull_rumor(0)


class TestFlooding:
    def test_flood_max_exact_on_grid(self, rng):
        topo = grid_graph(256)
        values = rng.uniform(0, 100, size=256)
        result = flood_max(topo, values, rng=16)
        assert result.all_correct

    def test_flood_rounds_close_to_diameter_on_ring(self, rng):
        topo = ring_graph(64)
        values = rng.uniform(0, 100, size=64)
        result = flood_max(topo, values, rng=17)
        assert result.all_correct
        assert result.rounds <= 34  # diameter of C_64 is 32

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            flood_max(ring_graph(8), np.zeros(5))


class TestBaselineProperties:
    @given(st.integers(min_value=8, max_value=300), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_push_sum_mass_conservation_reliable(self, n, seed):
        values = np.random.default_rng(seed).uniform(0, 10, size=n)
        result = push_sum(values, rng=seed)
        # With no failures the final estimates are all close to the average;
        # at very small n the O(log n + log 1/eps) budget leaves more
        # variance, so the tolerance is wider there.
        assert result.max_relative_error < (0.05 if n >= 32 else 0.2)

    @given(st.integers(min_value=8, max_value=300), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_push_max_never_invents_values(self, n, seed):
        values = np.random.default_rng(seed).normal(size=n)
        result = push_max(values, rng=seed)
        assert np.all(np.isin(result.estimates, values))
