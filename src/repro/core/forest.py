"""The ranking forest produced by DRR / Local-DRR (Phase I output).

Both ranking schemes produce the same object: every node either points to a
parent of strictly higher rank or is a root, so the parent pointers form a
forest of disjoint trees.  :class:`Forest` stores the parent array together
with the ranks, derives tree ids / depths / sizes / heights, and
validates the structural invariants that the analysis of Theorems 2-4 and
11-13 relies on:

* acyclicity (guaranteed by the rank-increase property, checked anyway),
* every non-root's parent has strictly higher rank,
* tree ids partition the node set.

Every derived array comes from one :class:`TreeIndex`, a BFS order of the
forest that :attr:`Forest.tree_index` builds once: the nodes root-first and
layer by layer, each parent's children one contiguous run in ascending id.
``depth``, ``tree_id`` and ``topological_order`` read it off, and the tree
phases (the convergecast and both broadcasts) walk its layers as contiguous
slices through one :class:`TreeSchedule` (known-child and liveness flags,
sibling service ranks, convergecast send rounds, all in index order), which
:func:`build_tree_schedule` derives once per Phase I result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..observability.telemetry import instrumented

__all__ = [
    "Forest",
    "ForestInvariantError",
    "TreeIndex",
    "TreeSchedule",
    "build_tree_index",
    "build_tree_schedule",
]

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

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #
    @cached_property
    def tree_index(self) -> TreeIndex:
        """The forest in BFS order (see :class:`TreeIndex`), built on first use.

        Raises :class:`ForestInvariantError` when the parent pointers
        contain a cycle.
        """
        return build_tree_index(self)

    @cached_property
    def tree_id(self) -> np.ndarray:
        """``tree_id[i]`` is the root of the tree containing node ``i``."""
        index = self.tree_index
        # In index order a node's root is its parent's root, which the
        # layer above already holds.
        root = np.empty(self.n, dtype=np.int64)
        root[: index.bounds[1]] = self.roots
        for lo, hi in index.layers():
            root[lo:hi] = root[index.up_pos[lo:hi]]
        return index.by_id(root)

    @cached_property
    def depth(self) -> np.ndarray:
        """``depth[i]`` = number of edges from node ``i`` up to its root.

        Read off the layer bounds of :attr:`tree_index` with one scatter, so
        the first access builds the index (and raises
        :class:`ForestInvariantError` on a cyclic "forest").
        """
        bounds = self.tree_index.bounds
        return self.tree_index.by_id(np.repeat(np.arange(bounds.size - 1), np.diff(bounds)))

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
        return self.tree_index.order

    def depth_by_bfs(self) -> np.ndarray:
        """Depths computed by a level-synchronous sweep from the roots.

        An independent reference for :attr:`depth` that shares nothing with
        :attr:`tree_index`.  It raises on a cyclic "forest": a node inside a
        cycle is never reached from any root, so its depth stays unassigned.
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

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, require_rank_increase: bool = True) -> None:
        """Check all structural invariants, raising on the first violation."""
        if ((self.parent < NO_PARENT) | (self.parent >= self.n)).any():
            raise ForestInvariantError("parent pointer out of range")
        if (self.parent == np.arange(self.n)).any():
            raise ForestInvariantError("a node cannot be its own parent")
        # the BFS index behind `depth` raises if there is a cycle.
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
# the BFS index and the shared schedule of the tree phases
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TreeIndex:
    """Every node of a forest in BFS order: root-first, layer by layer.

    The depth-``d`` layer is ``order[bounds[d]:bounds[d + 1]]``; layer 0
    holds the roots in ascending id.  Inside every deeper layer each
    parent's children form one contiguous run in ascending id, and the runs
    follow their parents' order in the layer above.  ``up_pos[i]`` is the
    position of ``order[i]``'s parent in ``order`` (``-1`` for a root), so
    it never decreases over the non-roots and a layer's parent gathers
    read the layer above almost sequentially.
    """

    order: np.ndarray
    bounds: np.ndarray
    up_pos: np.ndarray

    def layers(self) -> list[tuple[int, int]]:
        """``(lo, hi)`` of every non-root layer, shallowest first (never empty)."""
        bounds = self.bounds.tolist()
        return list(zip(bounds[1:-1], bounds[2:]))

    def by_id(self, values: np.ndarray) -> np.ndarray:
        """Scatter an array aligned with ``order`` back to node ids."""
        out = np.empty_like(values)
        out[self.order] = values
        return out


@instrumented("forest.tree_index")
def build_tree_index(forest: Forest) -> TreeIndex:
    """Derive the :class:`TreeIndex` of ``forest``.

    One sort groups the children by parent; a level-synchronous expansion
    from the roots then lays the layers out in O(n).  A node that no root
    reaches sits on, or under, a cycle of parent pointers, so an expansion
    that ends short of ``n`` nodes raises :class:`ForestInvariantError`.
    """
    n = forest.n
    parent = forest.parent
    roots = forest.roots
    kids = np.flatnonzero(parent != NO_PARENT)
    kid_parents = parent[kids]
    # Sorting the composite key parent * n + id (exact for n below 3e9)
    # groups the children by parent, ascending id inside each group;
    # parent p's children are children[start[p]:start[p + 1]].
    children = kid_parents * n + kids
    children.sort()
    np.remainder(children, n, out=children)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(kid_parents, minlength=n), out=start[1:])
    has_kids = start[1:] != start[:-1]
    del kids, kid_parents

    order = np.empty(n, dtype=np.int64)
    up_pos = np.empty(n, dtype=np.int64)
    order[: roots.size] = roots
    up_pos[: roots.size] = NO_PARENT
    bounds = [0, roots.size]
    lo, hi = 0, roots.size
    # The loop body runs once per layer, so it calls array methods rather
    # than their numpy-function wrappers: a deep chain has a layer per node.
    while lo < hi:
        # Only the layer's parents are looked up in `start`; the leaves,
        # most of every layer, cost one gather from the small bool table.
        inner = has_kids[order[lo:hi]].nonzero()[0]
        if inner.size == 0:
            break
        inner += lo
        ids = order[inner]
        first = start[ids]
        count = start[1:][ids] - first
        run_end = count.cumsum()
        size = int(run_end[-1])
        # New node k belongs to parent j = run[k] and is its child number
        # k - (run_end[j] - count[j]), which sits at children[first[j] + that].
        run = np.arange(inner.size).repeat(count)
        at = (first - run_end + count)[run]
        at += np.arange(size)
        order[hi : hi + size] = children[at]
        up_pos[hi : hi + size] = inner[run]
        lo, hi = hi, hi + size
        bounds.append(hi)
    if hi < n:
        raise ForestInvariantError("parent pointers contain a cycle")
    return TreeIndex(order, np.array(bounds, dtype=np.int64), up_pos)


@dataclass(frozen=True)
class TreeSchedule:
    """The forest structure every tree phase sweeps, derived once.

    Every array is aligned with ``index.order``: position ``i`` describes
    node ``index.order[i]``, so a phase walks the layers of ``index`` as
    contiguous slices and only maps back to node ids at its ends.

    * ``known[i]``: the node is a child its parent knows (its CONNECT
      message arrived);
    * ``alive[i]``: the node is alive;
    * ``sib[i]``: a known child's 1-based slot in its parent's service
      order (ascending id, i.e. the running count of known children in its
      run of the index), 0 for every other node;
    * ``send[i]``: the 1-based round in which an alive non-root sends its
      convergecast aggregate (leaves in round 1, a parent one round after
      its last known child's scheduled send), 0 otherwise.

    :attr:`send_round` and :attr:`last_child_round` are the id-space views
    the message-level engine reads; they are derived on first use.
    """

    index: TreeIndex
    known: np.ndarray
    alive: np.ndarray
    sib: np.ndarray
    send: np.ndarray

    @cached_property
    def send_round(self) -> np.ndarray:
        """``send`` by node id."""
        return self.index.by_id(self.send)

    @cached_property
    def last_child_round(self) -> np.ndarray:
        """Latest scheduled send over each node's known alive children, by id.

        0 for a node without any; for a root it is the round after which
        its aggregate is final.
        """
        reports = np.flatnonzero(self.known & self.alive)
        last = np.zeros(self.send.size, dtype=np.int64)
        np.maximum.at(last, self.index.up_pos[reports], self.send[reports])
        return self.index.by_id(last)


@instrumented("core.tree_schedule")
def build_tree_schedule(forest: Forest, known_child_mask: np.ndarray) -> TreeSchedule:
    """Derive the :class:`TreeSchedule` of ``forest`` in O(n).

    ``known_child_mask[i]`` is True when node ``i``'s parent learned of it
    (its CONNECT message arrived).  The schedule is a pure function of the
    forest and that mask and consumes no randomness, so every backend runs
    the identical one.
    """
    n = forest.n
    index = forest.tree_index
    order, up_pos = index.order, index.up_pos
    known = known_child_mask[order]
    alive = np.ones(n, dtype=bool) if forest.alive is None else forest.alive[order]

    # A parent serves its known children in ascending id, which is their
    # order in its run, so a child's slot is the running count of known
    # children since its run started.  The roots share up_pos -1 and are
    # never known, so one pass over every position does it.
    sib = np.cumsum(known)
    run_start = np.ones(n, dtype=bool)
    np.not_equal(up_pos[1:], up_pos[:-1], out=run_start[1:])
    sib -= np.maximum.accumulate((sib - known) * run_start)
    sib *= known

    # Fill the send schedule bottom-up: when a layer comes up, every deeper
    # layer has scatter-maxed its sends into it, so it holds its latest
    # child send and one more round is its own.
    send = np.zeros(n, dtype=np.int64)
    reports = known & alive
    everyone_alive = bool(alive.all())
    for lo, hi in reversed(index.layers()):
        layer = send[lo:hi]
        layer += 1
        if not everyone_alive:
            layer *= alive[lo:hi]
        at = lo + reports[lo:hi].nonzero()[0]
        np.maximum.at(send, up_pos[at], send[at])
    send[: index.bounds[1]] = 0  # the roots collected their last child send
    return TreeSchedule(index, known, alive, sib, send)
