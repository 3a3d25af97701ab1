"""Tests for Phase II: convergecast and broadcast (fast and engine paths)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.drr as drr_module
import repro.core.forest as forest_module
from repro.core import (
    DRRGossipConfig,
    drr_gossip_average,
    run_broadcast,
    run_convergecast,
    run_drr,
    run_local_drr,
)
from repro.core.forest import TreeSchedule
from repro.simulator import FailureModel
from repro.topology.graphs import ring_graph


@pytest.fixture
def drr_256():
    return run_drr(256, rng=11)


@pytest.fixture
def values_256(rng):
    return rng.normal(10.0, 5.0, size=256)


class TestConvergecastFast:
    def test_max_local_aggregates_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value == pytest.approx(values_256[members].max())

    def test_min_local_aggregates_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="min", rng=1)
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value == pytest.approx(values_256[members].min())

    def test_sum_local_aggregates_and_weights_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="sum", rng=1)
        forest = drr_256.forest
        for root in cov.local_value:
            members = forest.tree_members(root)
            assert cov.local_value[root] == pytest.approx(values_256[members].sum())
            assert cov.local_weight[root] == members.size
        # weights over all roots sum to n
        assert sum(cov.local_weight.values()) == 256

    def test_message_count_one_per_non_root(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        non_roots = int((drr_256.forest.parent >= 0).sum())
        assert cov.metrics.total_messages == non_roots

    def test_rounds_at_most_max_tree_size(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        assert 1 <= cov.rounds <= drr_256.forest.max_tree_size

    def test_value_vector_alignment(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="sum", rng=1)
        roots = drr_256.forest.roots
        vec = cov.value_vector(roots)
        assert vec.shape == roots.shape
        assert vec[0] == pytest.approx(cov.local_value[int(roots[0])])

    def test_invalid_op_rejected(self, drr_256, values_256):
        with pytest.raises(ValueError):
            run_convergecast(drr_256, values_256, op="median", rng=1)

    def test_shape_mismatch_rejected(self, drr_256):
        with pytest.raises(ValueError):
            run_convergecast(drr_256, np.zeros(5), op="max", rng=1)

    def test_loss_drops_contributions_but_not_correct_structure(self, drr_256, values_256):
        cov = run_convergecast(
            drr_256, values_256, op="sum", failure_model=FailureModel(loss_probability=0.3), rng=2
        )
        # lost contributions mean the total accounted weight is below n ...
        assert sum(cov.local_weight.values()) < 256
        # ... but each root's local sum never exceeds what its tree holds
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value <= values_256[members].sum() + abs(values_256[members]).sum()


class TestBroadcastFast:
    def test_root_address_reaches_whole_tree(self, drr_256):
        forest = drr_256.forest
        payload = {int(r): float(r) for r in forest.roots}
        out = run_broadcast(drr_256, payload, rng=1)
        assert out.received.all()
        for node in range(forest.n):
            assert out.payload[node] == forest.tree_id[node]

    def test_messages_one_per_tree_edge(self, drr_256):
        payload = {int(r): 1.0 for r in drr_256.forest.roots}
        out = run_broadcast(drr_256, payload, rng=1)
        non_roots = int((drr_256.forest.parent >= 0).sum())
        assert out.metrics.total_messages == non_roots

    def test_partial_payload_only_reaches_that_tree(self, drr_256):
        forest = drr_256.forest
        root = int(forest.roots[0])
        out = run_broadcast(drr_256, {root: 7.0}, rng=1)
        members = set(forest.tree_members(root).tolist())
        assert set(np.flatnonzero(out.received).tolist()) == members

    def test_non_root_payload_rejected(self, drr_256):
        forest = drr_256.forest
        non_root = int(np.flatnonzero(forest.parent >= 0)[0])
        with pytest.raises(ValueError):
            run_broadcast(drr_256, {non_root: 1.0}, rng=1)

    def test_loss_reduces_coverage(self, drr_256):
        payload = {int(r): float(r) for r in drr_256.forest.roots}
        out = run_broadcast(drr_256, payload, failure_model=FailureModel(loss_probability=0.5), rng=3)
        assert 0.0 < out.coverage < 1.0


class TestEngineParity:
    def test_convergecast_engine_matches_fast_on_reliable_network(self, values_256):
        drr = run_drr(256, rng=21)
        fast = run_convergecast(drr, values_256, op="sum", rng=1)
        engine = run_convergecast(drr, values_256, op="sum", rng=1, backend="engine")
        assert fast.local_value == engine.local_value
        assert fast.local_weight == engine.local_weight
        assert fast.rounds == engine.rounds
        assert fast.metrics.as_dict() == engine.metrics.as_dict()

    def test_broadcast_engine_matches_fast_on_reliable_network(self):
        drr = run_drr(128, rng=22)
        payload = {int(r): float(r) * 2 for r in drr.forest.roots}
        fast = run_broadcast(drr, payload, rng=1)
        engine = run_broadcast(drr, payload, rng=1, backend="engine")
        assert np.array_equal(fast.received, engine.received)
        assert np.array_equal(fast.payload, engine.payload, equal_nan=True)
        assert fast.rounds == engine.rounds

    def test_convergecast_engine_message_count(self, values_256):
        drr = run_drr(256, rng=23)
        engine = run_convergecast(drr, values_256, op="max", rng=1, backend="engine")
        non_roots = int((drr.forest.parent >= 0).sum())
        assert engine.metrics.total_messages == non_roots

    def test_convergecast_engine_survives_loss(self, values_256):
        drr = run_drr(128, rng=24, failure_model=FailureModel(loss_probability=0.2))
        engine = run_convergecast(
            drr,
            values_256[:128],
            op="sum",
            failure_model=FailureModel(loss_probability=0.2),
            rng=2,
            backend="engine",
        )
        assert sum(engine.local_weight.values()) <= 128


# --------------------------------------------------------------------------- #
# the shared tree schedule
# --------------------------------------------------------------------------- #
def _reference_orders(drr):
    """An argsort-based derivation of the layers and sibling ranks, by id.

    Int32 stable sorts by depth give the convergecast senders (alive
    non-roots) and the broadcast receivers (known children) of every depth
    in ascending id, and a stable sort by parent gives the sibling ranks.
    """
    forest = drr.forest
    n = forest.n
    alive = forest.alive if forest.alive is not None else np.ones(n, dtype=bool)
    depth = forest.depth
    has_parent = forest.parent >= 0

    members = np.flatnonzero(alive & has_parent)
    up_order = members[np.argsort(depth[members].astype(np.int32), kind="stable")]
    layer_depths = depth[up_order]
    max_depth = int(layer_depths[-1]) if up_order.size else 0
    up_bounds = np.searchsorted(layer_depths, np.arange(max_depth + 2))

    kids = np.flatnonzero(drr.known_child_mask)
    order = kids[np.argsort(forest.parent[kids].astype(np.int32), kind="stable")]
    sibling_rank = np.zeros(n, dtype=np.int64)
    if order.size:
        parents_sorted = forest.parent[order]
        new_group = np.r_[True, parents_sorted[1:] != parents_sorted[:-1]]
        group_start = np.maximum.accumulate(np.where(new_group, np.arange(order.size), 0))
        sibling_rank[order] = np.arange(order.size) - group_start + 1

    down_order = kids[np.argsort(depth[kids].astype(np.int32), kind="stable")]
    layer_depths = depth[down_order]
    max_depth = int(layer_depths[-1]) if down_order.size else 0
    down_bounds = np.searchsorted(layer_depths, np.arange(max_depth + 2))
    return {
        "up_order": up_order,
        "up_bounds": up_bounds,
        "down_order": down_order,
        "down_bounds": down_bounds,
        "sibling_rank": sibling_rank,
    }


def _reference_send_schedule(drr):
    """The per-depth full-array scan that computed the send schedule before."""
    forest = drr.forest
    n = forest.n
    alive = forest.alive if forest.alive is not None else np.ones(n, dtype=bool)
    known = drr.known_child_mask
    depth = forest.depth
    has_parent = forest.parent >= 0
    send_round = np.zeros(n, dtype=np.int64)
    last_child_round = np.zeros(n, dtype=np.int64)
    max_depth = int(depth[alive].max()) if alive.any() else 0
    for d in range(max_depth, 0, -1):
        layer = np.flatnonzero(alive & has_parent & (depth == d))
        if layer.size == 0:
            continue
        send_round[layer] = 1 + last_child_round[layer]
        waiting = layer[known[layer]]
        if waiting.size:
            np.maximum.at(last_child_round, forest.parent[waiting], send_round[waiting])
    return {"send_round": send_round, "last_child_round": last_child_round}


def _assert_fields_equal(schedule: TreeSchedule, expected: dict) -> None:
    for name, want in expected.items():
        got = getattr(schedule, name)
        assert np.array_equal(got, want), f"TreeSchedule.{name} differs from the reference"


def _assert_matches_the_reference_orders(drr) -> None:
    """Each index layer holds exactly the reference's depth-d senders and
    receivers, and the sibling ranks agree by node id."""
    schedule = drr.schedule
    index = schedule.index
    expected = _reference_orders(drr)
    layer_of = np.repeat(np.arange(index.bounds.size - 1), np.diff(index.bounds))
    for members, name in (
        (schedule.alive & (index.up_pos >= 0), "up"),
        (schedule.known, "down"),
    ):
        ids, layers = index.order[members], layer_of[members]
        by_layer_then_id = np.lexsort((ids, layers))
        want_ids = expected[f"{name}_order"]
        bounds = expected[f"{name}_bounds"]
        want_layers = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        assert np.array_equal(ids[by_layer_then_id], want_ids), f"{name} layers differ"
        assert np.array_equal(layers[by_layer_then_id], want_layers), f"{name} depths differ"
    sibling_rank = index.by_id(schedule.sib)
    assert np.array_equal(sibling_rank, expected["sibling_rank"]), "sibling ranks differ"


def _ring_chain(n: int):
    """Local-DRR on a ring with increasing ranks: a chain of depth n - 2.

    Node ``i`` attaches to ``i + 1`` up to the root ``n - 1``, except node 0,
    whose best neighbour is the root itself.
    """
    return run_local_drr(ring_graph(n), rng=0, ranks=np.arange(n, dtype=float))


SCHEDULE_CASES = [
    pytest.param(n, seed, failures, id=f"n{n}-seed{seed}-{label}")
    for n in (1, 2, 37, 1000, 5000)
    for seed in (0, 1, 2)
    for label, failures in (
        ("reliable", FailureModel()),
        ("loss0.3", FailureModel(loss_probability=0.3)),
        ("crash0.2", FailureModel(crash_fraction=0.2)),
    )
]


class TestTreeSchedule:
    @pytest.mark.parametrize("n,seed,failures", SCHEDULE_CASES)
    def test_matches_the_argsort_reference_on_drr_forests(self, n, seed, failures):
        drr = run_drr(n, rng=seed, failure_model=failures)
        _assert_matches_the_reference_orders(drr)
        _assert_fields_equal(drr.schedule, _reference_send_schedule(drr))

    def test_dead_non_roots_neither_send_nor_count(self):
        # DRR leaves crashed nodes as isolated roots; a forest built
        # elsewhere may mark non-roots dead, and those must not send.
        drr = run_drr(1000, rng=6)
        dead = np.random.default_rng(6).random(1000) < 0.2
        assert (dead & (drr.forest.parent >= 0)).any()
        forest = dataclasses.replace(drr.forest, alive=~dead)
        drr = dataclasses.replace(drr, forest=forest)
        _assert_matches_the_reference_orders(drr)
        _assert_fields_equal(drr.schedule, _reference_send_schedule(drr))

    @pytest.mark.parametrize("connect_loss", [0.0, 0.3])
    def test_a_deep_local_drr_chain(self, connect_loss):
        drr = _ring_chain(600)
        assert int(drr.forest.depth.max()) == 598
        # Lossy rank announcements would break the chain, so drop CONNECT
        # messages on the finished chain instead.
        lost = np.random.default_rng(3).random(600) < connect_loss
        drr = dataclasses.replace(drr, connect_delivered=drr.connect_delivered & ~lost)
        _assert_matches_the_reference_orders(drr)
        _assert_fields_equal(drr.schedule, _reference_send_schedule(drr))

    def test_a_70k_deep_local_drr_chain(self):
        drr = _ring_chain(70_000)
        depth = drr.forest.depth
        max_depth = int(depth.max())
        assert max_depth == 70_000 - 2
        _assert_matches_the_reference_orders(drr)
        # The per-depth scan reference is quadratic on a chain, so walk the
        # senders one node at a time instead, deepest first: every child
        # has reported before its parent's send round is fixed.
        parent = drr.forest.parent.tolist()
        known = drr.known_child_mask.tolist()
        send_round = [0] * drr.forest.n
        last_child_round = [0] * drr.forest.n
        senders = [i for i in range(drr.forest.n) if parent[i] >= 0]
        for i in sorted(senders, key=depth.tolist().__getitem__, reverse=True):
            send_round[i] = 1 + last_child_round[i]
            if known[i]:
                last_child_round[parent[i]] = max(last_child_round[parent[i]], send_round[i])
        assert max(send_round) == max_depth
        _assert_fields_equal(
            drr.schedule,
            {"send_round": np.array(send_round), "last_child_round": np.array(last_child_round)},
        )

    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_an_average_run_builds_the_schedule_once(self, backend, monkeypatch):
        calls = []

        def counting(module, name):
            build = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return build(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(drr_module, "build_tree_schedule")
        counting(forest_module, "build_tree_index")
        values = np.random.default_rng(0).uniform(0.0, 1.0, size=256)
        result = drr_gossip_average(values, rng=5, config=DRRGossipConfig(backend=backend))
        assert result.coverage == 1.0
        # one forest, so one BFS index, and one schedule over it
        assert sorted(calls) == ["build_tree_index", "build_tree_schedule"]

    def test_broadcast_names_the_offending_non_root(self, drr_256):
        forest = drr_256.forest
        non_root = int(np.flatnonzero(forest.parent >= 0)[-1])
        payload = {int(r): 1.0 for r in forest.roots}
        payload[non_root] = 2.0
        with pytest.raises(ValueError, match=rf"^node {non_root} is not a root$"):
            run_broadcast(drr_256, payload, rng=1)
