"""The ranking forest produced by DRR / Local-DRR (Phase I output).

Both ranking schemes produce the same object: every node either points to a
parent of strictly higher rank or is a root, so the parent pointers form a
forest of disjoint trees.  :class:`Forest` stores the parent array together
with the ranks, derives children lists / tree ids / sizes / heights, and
validates the structural invariants that the analysis of Theorems 2-4 and
11-13 relies on:

* acyclicity (guaranteed by the rank-increase property, checked anyway),
* every non-root's parent has strictly higher rank,
* tree ids partition the node set.

The convergecast, broadcast, and gossip phases all consume a ``Forest``.
The tree phases read it through one :class:`TreeSchedule` (depth layers,
sibling service order, convergecast send rounds), which
:func:`build_tree_schedule` derives once per Phase I result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ..observability.telemetry import instrumented
from ..substrate import occurrence_index

__all__ = ["Forest", "ForestInvariantError", "TreeSchedule", "build_tree_schedule"]

NO_PARENT = -1


class ForestInvariantError(ValueError):
    """Raised when a claimed forest violates a structural invariant."""


@dataclass(frozen=True)
class Forest:
    """A forest over nodes ``0 .. n-1`` defined by parent pointers.

    Parameters
    ----------
    parent:
        ``parent[i]`` is the parent node of ``i`` or ``-1`` when ``i`` is a
        root.
    rank:
        The random rank each node drew in Phase I.  Only used for invariant
        checking and analysis; the later phases never look at ranks.
    alive:
        Optional liveness mask; crashed nodes are recorded as isolated roots
        so downstream phases can skip them uniformly.
    """

    parent: np.ndarray
    rank: np.ndarray
    alive: np.ndarray | None = None

    def __post_init__(self) -> None:
        parent = np.asarray(self.parent, dtype=np.int64)
        rank = np.asarray(self.rank, dtype=float)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "rank", rank)
        if parent.ndim != 1 or rank.ndim != 1 or parent.size != rank.size:
            raise ForestInvariantError("parent and rank must be 1-D arrays of equal length")
        if self.alive is not None:
            alive = np.asarray(self.alive, dtype=bool)
            if alive.shape != parent.shape:
                raise ForestInvariantError("alive mask must match parent length")
            object.__setattr__(self, "alive", alive)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return int(self.parent.size)

    @cached_property
    def roots(self) -> np.ndarray:
        """Node ids that have no parent (the set V-tilde of the paper)."""
        return np.flatnonzero(self.parent == NO_PARENT)

    @property
    def root_count(self) -> int:
        return int(self.roots.size)

    def is_root(self, node_id: int) -> bool:
        return self.parent[node_id] == NO_PARENT

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists, index-aligned with node ids."""
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for child, par in enumerate(self.parent):
            if par != NO_PARENT:
                kids[par].append(child)
        return tuple(tuple(c) for c in kids)

    def is_leaf(self, node_id: int) -> bool:
        return self.parent[node_id] != NO_PARENT and not self.children[node_id]

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #
    @cached_property
    def tree_id(self) -> np.ndarray:
        """``tree_id[i]`` is the root of the tree containing node ``i``.

        Computed by iterative pointer-jumping so deep trees (Local-DRR on a
        ring can produce Theta(log n) depth) never hit the recursion limit.
        """
        roots = self.parent.copy()
        roots[roots == NO_PARENT] = np.flatnonzero(self.parent == NO_PARENT)
        # Pointer jumping: after k iterations every pointer has jumped 2^k
        # levels, so ceil(log2(max depth)) + 1 iterations suffice.
        for _ in range(max(1, int(np.ceil(np.log2(max(2, self.n)))) + 1)):
            new_roots = roots[roots]
            if np.array_equal(new_roots, roots):
                break
            roots = new_roots
        else:  # pragma: no cover - only reachable on a cyclic "forest"
            raise ForestInvariantError("parent pointers contain a cycle")
        return roots

    @cached_property
    def depth(self) -> np.ndarray:
        """``depth[i]`` = number of edges from node ``i`` up to its root.

        Computed by a vectorised simultaneous walk of all parent pointers
        (``O(n)`` work per level, max-depth iterations), so it stays cheap
        at the million-node scale the vectorized substrate targets.
        """
        # Pointer doubling: after k iterations every pointer has jumped
        # 2^k levels and `depth` holds the number of levels jumped, so
        # ceil(log2(max depth)) + 1 iterations suffice -- even a
        # chain-shaped forest (max depth n) costs only O(n log n) total.
        # The walk runs over the compacted index set of still-walking nodes
        # (typical DRR forests are shallow, so the set collapses after a
        # few iterations instead of scanning n-sized masks every time).
        depth = (self.parent != NO_PARENT).astype(np.int64)
        ptr = self.parent.copy()
        idx = np.flatnonzero(ptr != NO_PARENT)
        for _ in range(max(1, int(np.ceil(np.log2(max(2, self.n)))) + 1)):
            if idx.size == 0:
                return depth
            hop = ptr[idx]
            depth[idx] += depth[hop]
            ptr[idx] = ptr[hop]
            idx = idx[ptr[idx] != NO_PARENT]
        if idx.size:
            raise ForestInvariantError("parent pointers contain a cycle")
        return depth

    @cached_property
    def tree_sizes(self) -> dict[int, int]:
        """Mapping root id -> number of nodes in its tree (Theorem 3 quantity)."""
        ids, counts = np.unique(self.tree_id, return_counts=True)
        return {int(r): int(c) for r, c in zip(ids, counts)}

    @cached_property
    def tree_heights(self) -> dict[int, int]:
        """Mapping root id -> height (max depth) of its tree (Theorem 11 quantity)."""
        heights = np.zeros(self.n, dtype=np.int64)
        np.maximum.at(heights, self.tree_id, self.depth)
        return {int(r): int(heights[r]) for r in self.roots}

    @property
    def max_tree_size(self) -> int:
        return max(self.tree_sizes.values())

    @property
    def max_tree_height(self) -> int:
        return max(self.tree_heights.values())

    def tree_members(self, root: int) -> np.ndarray:
        """All node ids in the tree rooted at ``root`` (including the root)."""
        if not self.is_root(root):
            raise ValueError(f"node {root} is not a root")
        return np.flatnonzero(self.tree_id == root)

    def size_of(self, root: int) -> int:
        return self.tree_sizes[int(root)]

    def largest_root(self) -> int:
        """Root of the largest tree; ties broken by smaller node id.

        DRR-gossip-ave needs this node: only the largest tree's root is
        guaranteed (Theorem 7) to converge, and it then Data-spreads the
        answer to the other roots.
        """
        best_root, best_size = -1, -1
        for root in sorted(self.tree_sizes):
            size = self.tree_sizes[root]
            if size > best_size:
                best_root, best_size = root, size
        return best_root

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> np.ndarray:
        """Nodes ordered so parents precede children (roots first)."""
        order = np.argsort(self.depth, kind="stable")
        return order

    def depth_by_bfs(self) -> np.ndarray:
        """Depths computed by a level-synchronous sweep from the roots.

        Unlike :attr:`depth` (which trusts the pointers), this raises on a
        cyclic "forest": a node inside a cycle is never reached from any
        root, so its depth stays unassigned.
        """
        depth = np.full(self.n, -1, dtype=np.int64)
        depth[self.parent == NO_PARENT] = 0
        unassigned = np.flatnonzero(depth < 0)
        level = 0
        while unassigned.size:
            level += 1
            reached = depth[self.parent[unassigned]] == level - 1
            if not reached.any():
                raise ForestInvariantError(
                    "parent pointers contain a cycle or dangling reference"
                )
            depth[unassigned[reached]] = level
            unassigned = unassigned[~reached]
        return depth

    def leaves(self) -> Iterator[int]:
        for node in range(self.n):
            if self.is_leaf(node):
                yield node

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, require_rank_increase: bool = True) -> None:
        """Check all structural invariants, raising on the first violation."""
        if ((self.parent < NO_PARENT) | (self.parent >= self.n)).any():
            raise ForestInvariantError("parent pointer out of range")
        if (self.parent == np.arange(self.n)).any():
            raise ForestInvariantError("a node cannot be its own parent")
        # the pointer-doubling depth walk raises if there is a cycle.
        self.depth
        if require_rank_increase:
            non_roots = np.flatnonzero(self.parent != NO_PARENT)
            parents = self.parent[non_roots]
            bad = ~(self.rank[parents] > self.rank[non_roots])
            if bad.any():
                offender = int(non_roots[np.argmax(bad)])
                raise ForestInvariantError(
                    f"node {offender} has rank {self.rank[offender]} but its parent "
                    f"{int(self.parent[offender])} has rank {self.rank[int(self.parent[offender])]}"
                )
        if self.root_count == 0:
            raise ForestInvariantError("a forest must contain at least one root")

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        sizes = np.array(list(self.tree_sizes.values()), dtype=float)
        heights = np.array(list(self.tree_heights.values()), dtype=float)
        return {
            "n": self.n,
            "roots": self.root_count,
            "max_tree_size": int(sizes.max()),
            "mean_tree_size": float(sizes.mean()),
            "max_tree_height": int(heights.max()),
            "mean_tree_height": float(heights.mean()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Forest(n={self.n}, roots={self.root_count}, "
            f"max_size={self.max_tree_size}, max_height={self.max_tree_height})"
        )


# --------------------------------------------------------------------------- #
# the shared schedule of the tree phases
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TreeSchedule:
    """The forest structure every tree phase sweeps, derived once.

    ``up_order`` lists the convergecast senders (alive non-roots) and
    ``down_order`` the broadcast receivers (children their parent knows).
    Both are grouped by depth with ascending ids inside a layer; the
    depth-``d`` layer is ``order[bounds[d]:bounds[d + 1]]``.
    ``sibling_rank[c]`` is known child ``c``'s 1-based position in its
    parent's service order (ascending id), 0 for every other node.
    ``send_round[i]`` is the 1-based round in which alive non-root ``i``
    sends its convergecast aggregate (leaves in round 1, a parent one round
    after its last known child's scheduled send), 0 otherwise;
    ``last_child_round[p]`` is the latest scheduled send over ``p``'s known
    alive children (0 for childless nodes), i.e. the round after which a
    root's aggregate is final.
    """

    up_order: np.ndarray
    up_bounds: np.ndarray
    down_order: np.ndarray
    down_bounds: np.ndarray
    sibling_rank: np.ndarray
    send_round: np.ndarray
    last_child_round: np.ndarray

    def up_layers(self) -> Iterator[np.ndarray]:
        """Non-empty convergecast sender layers, deepest first."""
        bounds = self.up_bounds
        for d in range(bounds.size - 2, 0, -1):
            if bounds[d] < bounds[d + 1]:
                yield self.up_order[bounds[d]:bounds[d + 1]]

    def down_layers(self) -> Iterator[np.ndarray]:
        """Non-empty broadcast receiver layers, shallowest first."""
        bounds = self.down_bounds
        for d in range(1, bounds.size - 1):
            if bounds[d] < bounds[d + 1]:
                yield self.down_order[bounds[d]:bounds[d + 1]]


def _layer_bounds(order_depths: np.ndarray) -> np.ndarray:
    """Layer offsets of a depth-sorted order: layer ``d`` is ``[b[d], b[d + 1])``."""
    top = int(order_depths[-1]) if order_depths.size else 0
    return np.searchsorted(order_depths, np.arange(top + 2))


@instrumented("core.tree_schedule")
def build_tree_schedule(forest: Forest, known_child_mask: np.ndarray) -> TreeSchedule:
    """Derive the :class:`TreeSchedule` of ``forest`` in O(n).

    ``known_child_mask[i]`` is True when node ``i``'s parent learned of it
    (its CONNECT message arrived).  The schedule is a pure function of the
    forest and that mask and consumes no randomness, so every backend runs
    the identical one.
    """
    n = forest.n
    parent = forest.parent
    depth = forest.depth
    non_roots = np.flatnonzero(parent != NO_PARENT)
    keys = depth[non_roots]
    max_depth = int(keys.max()) if keys.size else 0
    # One stable sort by depth.  numpy's stable sort is a radix sort only
    # for integer keys of at most 16 bits (wider keys take timsort), and
    # DRR depths are O(log n) (Theorem 3), so the narrowest key type that
    # holds them makes this a linear pass.
    if max_depth <= np.iinfo(np.uint8).max:
        keys = keys.astype(np.uint8)
    elif max_depth <= np.iinfo(np.uint16).max:
        keys = keys.astype(np.uint16)
    by_depth = non_roots[np.argsort(keys, kind="stable")]
    # Both orders are mask filters of that one sort; filtering keeps it
    # stable, so every layer stays in ascending id order.
    up_order = by_depth if forest.alive is None else by_depth[forest.alive[by_depth]]
    down_order = by_depth[known_child_mask[by_depth]]
    up_bounds = _layer_bounds(depth[up_order])
    down_bounds = _layer_bounds(depth[down_order])

    # A parent serves its known children in ascending id order, so a
    # child's service position is its occurrence rank among equal parents.
    kids = np.flatnonzero(known_child_mask)
    sibling_rank = np.zeros(n, dtype=np.int64)
    sibling_rank[kids] = occurrence_index(parent[kids]) + 1

    send_round = np.zeros(n, dtype=np.int64)
    last_child_round = np.zeros(n, dtype=np.int64)
    schedule = TreeSchedule(
        up_order, up_bounds, down_order, down_bounds, sibling_rank, send_round, last_child_round
    )
    # Fill the send schedule bottom-up: a layer's senders are final once
    # every deeper layer has reported to its parents.
    for layer in schedule.up_layers():
        send_round[layer] = 1 + last_child_round[layer]
        waiting = layer[known_child_mask[layer]]
        np.maximum.at(last_child_round, parent[waiting], send_round[waiting])
    return schedule
