"""The paper's claims, asserted across n.

Each test runs one experiment of :mod:`repro.harness` over a sweep of network
sizes and asserts what the paper proves: a measured cost over its theorem's
bound stays inside a band, the cheaper protocol stays cheaper, an exact
aggregate stays exact.  The bounds check shapes, not constants.  The sweeps
reach n = 2^16 for the DRR-gossip pipelines and n = 2^20 for the DRR forest
on ``vectorized``; every experiment is seeded, so every test is
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import best_shape, theory
from repro.core import Aggregate, drr_gossip_count, drr_gossip_rank, run_drr
from repro.harness import (
    run_ablation,
    run_chord_comparison,
    run_end_to_end_accuracy,
    run_forest_statistics,
    run_gossip_ave_convergence,
    run_gossip_max_convergence,
    run_local_drr_statistics,
    run_lower_bound_experiment,
    run_phase_breakdown,
    run_table1,
)

TABLE1_NS = (2**10, 2**12, 2**14, 2**16)
FOREST_NS = tuple(2**k for k in range(8, 21, 2))
#: the message-growth shapes ``run_table1`` fits
MESSAGE_SHAPES = ("constant", "loglog n", "log n", "log^2 n")


def _rows_by(result, key: str) -> dict:
    groups: dict = {}
    for row in result.rows:
        groups.setdefault(row[key], []).append(row)
    return groups


@pytest.fixture(scope="module")
def table1_average():
    return run_table1(ns=TABLE1_NS, repetitions=2, seed=1, aggregate=Aggregate.AVERAGE)


@pytest.fixture(scope="module")
def forest():
    return run_forest_statistics(ns=FOREST_NS, repetitions=3, seed=2)


# --------------------------------------------------------------------------- #
# Table 1: DRR-gossip vs uniform gossip vs efficient gossip
# --------------------------------------------------------------------------- #
def test_table1_average(table1_average):
    by_algo = _rows_by(table1_average, "algorithm")
    # Uniform gossip spends more messages than DRR-gossip at the largest n.
    largest = max(TABLE1_NS)
    drr_msgs = [r["messages"] for r in by_algo["drr-gossip"] if r["n"] == largest]
    uni_msgs = [r["messages"] for r in by_algo["uniform-gossip"] if r["n"] == largest]
    assert sum(drr_msgs) < sum(uni_msgs)
    # DRR-gossip and uniform gossip take O(log n) rounds: rounds / log n may
    # not blow up across the sweep.
    for algo in ("drr-gossip", "uniform-gossip"):
        ratios = [r["rounds_over_logn"] for r in by_algo[algo]]
        assert max(ratios) < 3.0 * min(ratios) + 1e-9
    # Efficient gossip pays its log log n time penalty: it always needs more
    # rounds than the time-optimal uniform gossip.  (DRR-gossip's O(log n)
    # constant is larger than uniform gossip's, so its time gap to efficient
    # gossip is not asserted.)
    for n in TABLE1_NS:
        eff = [r["rounds"] for r in by_algo["efficient-gossip"] if r["n"] == n]
        uni = [r["rounds"] for r in by_algo["uniform-gossip"] if r["n"] == n]
        assert min(eff) > max(uni)


def test_uniform_gossip_messages_grow_like_log_n(table1_average):
    rows = _rows_by(table1_average, "algorithm")["uniform-gossip"]
    fit = best_shape([r["n"] for r in rows], [r["messages_per_node"] for r in rows], MESSAGE_SHAPES)
    assert fit.shape_name == "log n"


def test_table1_max():
    result = run_table1(ns=(2**10, 2**12), repetitions=1, seed=2, aggregate=Aggregate.MAX)
    for row in result.rows:
        assert row["max_rel_error"] == 0.0  # Max is exact for every protocol


# --------------------------------------------------------------------------- #
# Theorems 2-4: the DRR forest
# --------------------------------------------------------------------------- #
def test_tree_count_and_size(forest):
    for row in forest.rows:
        # Theorem 2: #trees = Theta(n / log n).
        assert 0.3 < row["trees_over_n_div_logn"] < 3.0
        # Theorem 3: max tree size = O(log n).
        assert row["max_tree_size_over_logn"] < 20.0
        # Theorem 4: rounds <= log2(n) and messages grow like n log log n.
        assert row["rounds_over_logn"] <= 1.2
        assert row["messages_over_nloglogn"] < 6.0


@pytest.mark.parametrize("log2_n", [12, 16, 20])
def test_tree_sizes_follow_the_probe_model(log2_n):
    """Theorem 3 as the DRR forest realises it: O(log n) expected, Theta(log^2 n) largest.

    A root of rank r expects ``theory.expected_tree_size`` nodes, which is
    O(log n); the sizes have a scale-free tail, so the largest of the
    Theta(n / log n) trees grows like log^2 n, while the tallest stays
    under log2 n levels.
    """
    n = 2**log2_n
    k = log2_n - 1  # the probe budget
    height_ratios = []
    for seed in range(4):
        forest = run_drr(n, rng=seed, backend="vectorized").forest
        roots = forest.roots
        top = roots[forest.rank[roots] > 1 - 1 / k]
        sizes = np.bincount(forest.tree_id, minlength=n)[top]
        expected = theory.expected_tree_size(n, forest.rank[top])
        assert abs(sizes.mean() / expected.mean() - 1.0) <= 0.10
        assert 0.4 <= forest.max_tree_size / log2_n**2 <= 1.2
        height_ratios.append(forest.max_tree_height / log2_n)
    assert np.mean(height_ratios) <= 1.0


def test_drr_messages_grow_like_loglog_n(forest):
    fit = best_shape(forest.column("n"), forest.column("messages_per_node"), MESSAGE_SHAPES)
    assert fit.shape_name == "loglog n"


def test_drr_complexity_is_quasilinear():
    result = run_forest_statistics(ns=(512, 1024, 2048, 4096), repetitions=2, seed=12)
    # Messages per node grow much slower than log n: from n=512 to n=4096,
    # log n grows by a factor of 1.33 but log log n only by ~1.10.
    first, last = result.rows[0], result.rows[-1]
    assert last["messages_per_node"] / first["messages_per_node"] < 1.25


def test_probe_budget_ablation():
    result = run_ablation(n=2048, repetitions=2, seed=10)
    by_variant = {row["variant"]: row for row in result.rows}
    half = by_variant["probe budget (half budget)"]["trees"]
    # Halving the probe budget increases the number of trees; doubling it
    # decreases them (more chances to find a higher-ranked parent).
    assert half > by_variant["probe budget (paper: log2(n)-1)"]["trees"]
    assert by_variant["probe budget (double budget)"]["trees"] < half
    # The rank domain ([0,1] vs [1,n^3]) does not change the structure.
    a = by_variant["rank domain (ranks in [0,1])"]["trees"]
    b = by_variant["rank domain (ranks in [1,n^3])"]["trees"]
    assert abs(a - b) < 0.5 * max(a, b)


# --------------------------------------------------------------------------- #
# Theorems 5-7: Gossip-max and Gossip-ave
# --------------------------------------------------------------------------- #
def test_gossip_max_reaches_all_roots():
    result = run_gossip_max_convergence(
        ns=(2**10, 2**12, 2**14), deltas=(0.0, 0.05, 0.1), repetitions=3, seed=3
    )
    for row in result.rows:
        # Theorem 5: a constant fraction of roots holds Max after the gossip
        # procedure; Theorem 6: all roots hold it after the sampling procedure.
        assert row["roots_with_max_after_gossip"] > 0.3
        assert row["roots_with_max_after_sampling"] > 0.99
        # Phase III stays O(n) messages.
        assert row["gossip_max_messages_per_node"] < 14.0


def test_gossip_ave_relative_error():
    result = run_gossip_ave_convergence(
        ns=(2**10, 2**12, 2**14),
        workloads=("uniform", "bimodal", "signed", "zero-mean"),
        repetitions=2,
        seed=4,
    )
    for row in result.rows:
        # Theorem 7: the largest-tree root converges to a tiny relative error
        # within O(log n) rounds, for every value distribution, mixed-sign and
        # zero-average inputs included.
        assert row["final_rel_error_mean"] < 1e-3
        assert row["rounds_to_1pct_over_logn"] < 6.0


# --------------------------------------------------------------------------- #
# End to end: every aggregate
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [256, 512, 2**10, 2**12, 2**14])
def test_every_aggregate_end_to_end(n):
    result = run_end_to_end_accuracy(ns=(n,), repetitions=2, seed=5)
    for row in result.rows:
        if row["aggregate"] in ("max", "min", "count", "rank"):
            assert row["max_rel_error"] == 0.0, row["aggregate"]
        else:  # average and sum converge with a bounded relative error
            assert row["max_rel_error"] < 1e-2, row["aggregate"]
        assert row["coverage"] == 1.0


@pytest.mark.parametrize("n", [2**14, 2**16])
def test_count_and_rank_are_exact(n):
    inexact = []
    for seed in range(20):
        values = np.random.default_rng(1000 + seed).uniform(size=n)
        count = drr_gossip_count(values, rng=seed)
        rank = drr_gossip_rank(values, query=float(np.median(values)), rng=seed)
        inexact += [(r.aggregate, seed) for r in (count, rank) if not r.all_correct]
    assert inexact == []


def test_end_to_end_under_loss():
    result = run_end_to_end_accuracy(ns=(512,), repetitions=2, seed=6, delta=0.05)
    loss_sensitive = []
    for row in result.rows:
        # With 5% message loss coverage drops but stays high, and Average
        # stays within a few percent (its push-sum mass is spread over all
        # roots, so lost messages bias s and g together).  Sum/Count/Rank
        # concentrate the weight mass at a single root, so their worst-over-
        # repetitions error is heavy-tailed (~0.1-2.3 across seeds at this
        # n/delta).  The bounds leave modest headroom over seed 6's values
        # rather than covering the whole cross-seed tail.
        assert row["coverage"] > 0.6
        if row["aggregate"] == "average":
            assert row["max_rel_error"] < 0.15
        if row["aggregate"] in ("sum", "count", "rank"):
            assert row["max_rel_error"] < 1.5
            loss_sensitive.append(row["max_rel_error"])
    assert len(loss_sensitive) == 3
    assert sum(loss_sensitive) / 3 < 0.8


# --------------------------------------------------------------------------- #
# Theorems 11, 13, 14: sparse graphs and Chord
# --------------------------------------------------------------------------- #
def test_local_drr_height_and_tree_count():
    result = run_local_drr_statistics(
        ns=(2**10, 2**12),
        families=("ring", "grid", "regular4", "hypercube", "erdos-renyi"),
        repetitions=3,
        seed=6,
    )
    for row in result.rows:
        # Theorem 11: tree height is O(log n) on every family.
        assert row["height_over_logn"] < 4.0
        # Theorem 13: #trees concentrates around sum 1/(d_i + 1).
        assert 0.5 < row["trees_over_predicted"] < 1.8


def test_chord_drr_vs_uniform_gossip():
    result = run_chord_comparison(ns=(2**8, 2**10, 2**12), repetitions=2, seed=7)
    ratios = result.column("message_ratio_uniform_over_drr")
    # Theorem 14: uniform gossip needs O(n log^2 n) messages on Chord while
    # DRR-gossip needs O(n log n), so uniform costs strictly more, and the gap
    # does not shrink as n grows (it grows like log n asymptotically).
    assert all(r > 1.5 for r in ratios)
    assert ratios[-1] >= 0.9 * ratios[0]
    for row in result.rows:
        assert row["drr_msgs_over_nlogn"] < 8.0
        assert row["uniform_msgs_over_nlog2n"] < 4.0


# --------------------------------------------------------------------------- #
# Theorem 15: the address-oblivious lower bound
# --------------------------------------------------------------------------- #
def test_address_oblivious_gap():
    result = run_lower_bound_experiment(ns=tuple(2**k for k in range(7, 12)), repetitions=2, seed=8)
    rows = result.rows
    # Address-oblivious aggregation pays Theta(log n) messages per node: the
    # per-node count grows across the sweep and tracks the n log n bound.
    assert rows[-1]["oblivious_messages_per_node"] > rows[0]["oblivious_messages_per_node"]
    for row in rows:
        assert 0.2 < row["oblivious_over_nlogn"] < 3.0
    # Rumor spreading (one rumor, address-oblivious) stays near n log log n:
    # its per-node messages grow far slower than the oblivious aggregate's.
    rumor_growth = rows[-1]["rumor_messages_per_node"] / rows[0]["rumor_messages_per_node"]
    oblivious_growth = rows[-1]["oblivious_messages_per_node"] / rows[0]["oblivious_messages_per_node"]
    assert rumor_growth < oblivious_growth + 0.25
    # DRR-gossip (not address-oblivious) stays on the n log log n track.
    for row in rows:
        assert row["drr_over_nloglogn"] < 10.0


# --------------------------------------------------------------------------- #
# Section 3.5: where DRR-gossip's messages go
# --------------------------------------------------------------------------- #
def test_phase_breakdown():
    result = run_phase_breakdown(ns=tuple(2**k for k in range(10, 17)), repetitions=2, seed=9)
    for row in result.rows:
        shares = {k: v for k, v in row.items() if k.endswith("_share")}
        assert abs(sum(shares.values()) - 1.0) < 1e-6
        # Convergecast and the root broadcast are O(n) with a constant of
        # about 1, so they are always a small slice of the budget.
        assert row["convergecast_share"] < 0.15
        assert row["broadcast-root_share"] < 0.15
    # The DRR share grows with n (it is the only Theta(n log log n) phase).
    assert result.rows[-1]["drr_share"] >= result.rows[0]["drr_share"] - 0.02
