"""Unit and property tests for the Forest data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forest import Forest, ForestInvariantError


def make_forest(parent, rank=None):
    parent = np.asarray(parent, dtype=np.int64)
    if rank is None:
        # assign ranks consistent with the parent pointers: rank = -depth noise
        rank = np.zeros(parent.size)
        # simple increasing rank along ancestry: use depth via repeated walk
        for i in range(parent.size):
            depth = 0
            j = i
            while parent[j] != -1:
                j = parent[j]
                depth += 1
                if depth > parent.size:
                    break
            rank[i] = 1.0 - depth * (1.0 / (parent.size + 1)) - i * 1e-6
    return Forest(parent=parent, rank=np.asarray(rank, dtype=float))


class TestBasicStructure:
    def test_single_root(self):
        f = make_forest([-1, 0, 0, 1])
        assert f.root_count == 1
        assert f.roots.tolist() == [0]
        assert f.children[0] == (1, 2)
        assert f.is_leaf(3)
        assert not f.is_leaf(1)

    def test_tree_id_assignment(self):
        f = make_forest([-1, 0, -1, 2, 3])
        assert f.tree_id[1] == 0
        assert f.tree_id[4] == 2
        assert f.tree_sizes == {0: 2, 2: 3}

    def test_depth_and_height(self):
        f = make_forest([-1, 0, 1, 2])
        assert f.depth.tolist() == [0, 1, 2, 3]
        assert f.max_tree_height == 3
        assert f.tree_heights == {0: 3}

    def test_depth_matches_bfs_reference(self):
        # `depth` is read off the BFS index; `depth_by_bfs` is the
        # independent level-sweep reference the index is checked against.
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 500
            ranks = rng.random(n)
            parent = np.full(n, -1, dtype=np.int64)
            for i in range(n):
                candidate = int(rng.integers(0, n))
                if ranks[candidate] > ranks[i]:
                    parent[i] = candidate
            f = Forest(parent=parent, rank=ranks)
            assert np.array_equal(f.depth, f.depth_by_bfs())

    def test_bfs_reference_rejects_cycle(self):
        f = Forest(parent=np.array([1, 2, 0]), rank=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ForestInvariantError):
            f.depth_by_bfs()

    def test_largest_root_breaks_ties_by_id(self):
        f = make_forest([-1, 0, -1, 2])
        assert f.largest_root() == 0  # both size 2, smaller id wins

    def test_tree_members(self):
        f = make_forest([-1, 0, -1, 2, 2])
        assert f.tree_members(2).tolist() == [2, 3, 4]
        with pytest.raises(ValueError):
            f.tree_members(1)

    def test_leaves_iteration(self):
        f = make_forest([-1, 0, 0, 1])
        assert sorted(f.leaves()) == [2, 3]

    def test_summary_fields(self):
        f = make_forest([-1, 0, 0])
        s = f.summary()
        assert s["n"] == 3
        assert s["roots"] == 1
        assert s["max_tree_size"] == 3


class TestValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ForestInvariantError):
            Forest(parent=np.array([-1, 0]), rank=np.array([0.5]))

    def test_rejects_self_parent(self):
        f = Forest(parent=np.array([0]), rank=np.array([0.5]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_rejects_out_of_range_parent(self):
        f = Forest(parent=np.array([5, -1]), rank=np.array([0.5, 0.6]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_rejects_cycle(self):
        f = Forest(parent=np.array([1, 2, 0]), rank=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ForestInvariantError):
            f.validate(require_rank_increase=False)

    @pytest.mark.parametrize("require_rank_increase", [True, False])
    def test_a_cycle_under_a_valid_tree_raises_from_depth_and_validate(
        self, require_rank_increase
    ):
        # 0 is a root with child 1; 2 -> 3 -> 4 -> 2 is a cycle that no root
        # reaches, and 5 hangs off it.
        parent = np.array([-1, 0, 4, 2, 3, 3])
        rank = np.array([0.9, 0.1, 0.5, 0.6, 0.7, 0.2])
        with pytest.raises(ForestInvariantError, match="cycle"):
            Forest(parent=parent, rank=rank).depth
        with pytest.raises(ForestInvariantError, match="cycle"):
            Forest(parent=parent, rank=rank).validate(require_rank_increase=require_rank_increase)

    def test_rejects_rank_inversion(self):
        f = Forest(parent=np.array([-1, 0]), rank=np.array([0.2, 0.9]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_accepts_valid_forest(self):
        f = Forest(parent=np.array([-1, 0, 0]), rank=np.array([0.9, 0.5, 0.2]))
        f.validate()

    def test_alive_mask_shape_checked(self):
        with pytest.raises(ForestInvariantError):
            Forest(parent=np.array([-1, 0]), rank=np.array([0.9, 0.1]), alive=np.array([True]))


@st.composite
def random_forest(draw):
    """Generate a random valid forest by attaching each node to a higher-ranked one."""
    n = draw(st.integers(min_value=1, max_value=60))
    ranks = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, exclude_min=True, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    ranks = np.array(ranks)
    order = np.argsort(ranks)
    parent = np.full(n, -1, dtype=np.int64)
    for position, node in enumerate(order[:-1]):  # all but the highest-ranked
        # choose a parent among strictly higher-ranked nodes, or stay a root
        higher = order[position + 1 :]
        choice = draw(st.integers(min_value=-1, max_value=len(higher) - 1))
        if choice >= 0:
            parent[node] = higher[choice]
    return Forest(parent=parent, rank=ranks)


def _assert_breadth_first_index(forest: Forest) -> None:
    """Check ``forest.tree_index`` against the parent pointers directly."""
    index = forest.tree_index
    order, bounds, up_pos = index.order, index.bounds, index.up_pos
    assert np.array_equal(np.sort(order), np.arange(forest.n))
    assert np.array_equal(forest.depth, forest.depth_by_bfs())
    # layer d is exactly the depth-d nodes, the roots first
    assert bounds[0] == 0 and bounds[-1] == forest.n
    assert np.array_equal(order[: bounds[1]], forest.roots)
    for d in range(bounds.size - 1):
        layer = order[bounds[d] : bounds[d + 1]]
        assert layer.size
        assert set(layer.tolist()) == set(np.flatnonzero(forest.depth == d).tolist())
    # every node points at its parent's position
    assert (up_pos[: bounds[1]] == -1).all()
    non_roots = np.arange(bounds[1], forest.n)
    assert np.array_equal(order[up_pos[non_roots]], forest.parent[order[non_roots]])
    # each parent's children are one ascending run, in parent order
    for d in range(1, bounds.size - 1):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        ups = up_pos[lo:hi]
        assert ((bounds[d - 1] <= ups) & (ups < lo)).all()
        assert (np.diff(ups) >= 0).all()
        for p in np.unique(ups):
            run = order[lo:hi][ups == p]
            assert run.tolist() == list(forest.children[order[p]])
    # a node's tree is its parent's tree
    has_parent = forest.parent >= 0
    assert np.array_equal(forest.tree_id[has_parent], forest.tree_id[forest.parent[has_parent]])


class TestForestProperties:
    @given(random_forest())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_generated_forests(self, forest):
        forest.validate()
        _assert_breadth_first_index(forest)
        # tree ids partition the node set and every tree id is a root
        assert set(np.unique(forest.tree_id)) == set(forest.roots.tolist())
        # sizes sum to n
        assert sum(forest.tree_sizes.values()) == forest.n
        # depth of a root is zero, depth of a child is parent depth + 1
        for node in range(forest.n):
            p = forest.parent[node]
            if p == -1:
                assert forest.depth[node] == 0
            else:
                assert forest.depth[node] == forest.depth[p] + 1

    @given(random_forest())
    @settings(max_examples=60, deadline=None)
    def test_height_bounded_by_size(self, forest):
        for root, height in forest.tree_heights.items():
            assert height <= forest.tree_sizes[root] - 1 if forest.tree_sizes[root] > 0 else height == 0

    @given(random_forest())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_parents_first(self, forest):
        order = forest.topological_order()
        seen = set()
        for node in order:
            p = forest.parent[node]
            if p != -1:
                assert int(p) in seen
            seen.add(int(node))
