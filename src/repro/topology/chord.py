"""Chord DHT topology and routing (Stoica et al., SIGCOMM 2001).

Section 4 of the paper instantiates the sparse-network result on Chord:
every node has degree ``O(log n)`` (its finger table), greedy finger routing
reaches any identifier in ``O(log n)`` hops, and King et al.'s protocol lets
a node sample a *uniformly random* peer in ``O(log n)`` time and messages.
With those two primitives the paper concludes DRR-gossip on Chord costs
``O(log^2 n)`` time and ``O(n log n)`` messages, versus uniform gossip's
``O(log^2 n)`` time and ``O(n log^2 n)`` messages.

This module provides:

* :class:`ChordNetwork` -- node identifiers on a ``2^m`` ring, successor and
  finger tables, and the induced undirected :class:`~repro.topology.base.Topology`;
* greedy lookup with hop/message accounting (used as the routing protocol of
  Theorem 14, so ``T`` and ``M`` are measured rather than assumed);
* random peer sampling by routing to a uniformly random identifier, the
  standard simulation-friendly stand-in for King et al.'s unbiased sampler
  (the bias from non-uniform arc lengths vanishes when node ids are placed
  uniformly; the experiments use the hop/message cost, which is the quantity
  Theorem 14 consumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import Topology

__all__ = ["ChordNetwork", "LookupResult"]


@dataclass(frozen=True)
class LookupResult:
    """Outcome of routing to an identifier on the Chord ring."""

    #: node id (index into 0..n-1) responsible for the target identifier
    owner: int
    #: number of overlay hops the greedy routing used
    hops: int
    #: number of messages spent (one per hop; a reply costs one more if
    #: ``count_reply`` was requested)
    messages: int
    #: the sequence of node indices visited, starting at the source
    path: tuple[int, ...]


class ChordNetwork:
    """A Chord ring over ``n`` nodes with ``m``-bit identifiers.

    Parameters
    ----------
    n:
        Number of participating nodes.
    rng:
        Generator used to place nodes on the identifier ring.
    m:
        Identifier width in bits.  Defaults to ``ceil(log2 n) + 3`` which
        keeps collisions negligible while staying close to the usual
        ``m = Theta(log n)`` setting.
    """

    def __init__(self, n: int, rng: np.random.Generator, m: int | None = None) -> None:
        if n < 2:
            raise ValueError("a Chord ring needs at least two nodes")
        self.n = int(n)
        self.m = int(m) if m is not None else max(3, math.ceil(math.log2(n)) + 3)
        self.ring_size = 1 << self.m
        if self.ring_size < 2 * n:
            raise ValueError(
                f"identifier space 2^{self.m} is too small for {n} nodes"
            )
        ids = rng.choice(self.ring_size, size=self.n, replace=False)
        ids.sort()
        #: identifier of each node index, sorted ascending so that node index
        #: order equals ring order (convenient and loses no generality).
        self.identifiers = ids.astype(np.int64)
        self._build_fingers()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _successor_index_of_identifier(self, identifier: int) -> int:
        """Index of the node whose identifier is the first >= identifier (mod ring)."""
        pos = int(np.searchsorted(self.identifiers, identifier % self.ring_size, side="left"))
        return pos % self.n

    def _build_fingers(self) -> None:
        # finger[i][k] = index of successor(identifier_i + 2^k); one
        # searchsorted per finger column keeps construction columnar.
        fingers = np.empty((self.n, self.m), dtype=np.int64)
        for k in range(self.m):
            targets = (self.identifiers + (np.int64(1) << np.int64(k))) % self.ring_size
            fingers[:, k] = np.searchsorted(self.identifiers, targets, side="left") % self.n
        self.fingers = fingers
        self.successors = fingers[:, 0].copy()
        self.predecessors = np.empty(self.n, dtype=np.int64)
        self.predecessors[self.successors] = np.arange(self.n)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def neighbors(self, node_index: int) -> tuple[int, ...]:
        """Distinct overlay neighbours: fingers plus predecessor (undirected view)."""
        neigh = set(int(f) for f in self.fingers[node_index])
        neigh.add(int(self.predecessors[node_index]))
        neigh.discard(node_index)
        return tuple(sorted(neigh))

    def to_topology(self) -> Topology:
        """Undirected overlay graph (used for Local-DRR on Chord)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.m + 1)
        dst = np.concatenate([self.fingers, self.predecessors[:, None]], axis=1).ravel()
        keep = src != dst  # a node's finger may be itself on tiny rings
        return Topology.from_edge_arrays("chord", self.n, src[keep], dst[keep])

    def average_degree(self) -> float:
        return float(np.mean([len(self.neighbors(u)) for u in range(self.n)]))

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _in_interval(self, x: int, lo: int, hi: int) -> bool:
        """True if identifier x lies in the half-open ring interval (lo, hi]."""
        x, lo, hi = x % self.ring_size, lo % self.ring_size, hi % self.ring_size
        if lo < hi:
            return lo < x <= hi
        return x > lo or x <= hi

    def lookup(self, source: int, target_identifier: int, count_reply: bool = False) -> LookupResult:
        """Greedy finger routing from ``source`` to ``target_identifier``.

        Each hop forwards the query to the finger that most closely precedes
        the target; the node whose successor owns the target delivers it.
        Hop count is ``O(log n)`` whp, which the Chord experiments verify
        empirically rather than assume.
        """
        if not (0 <= source < self.n):
            raise ValueError(f"source index {source} out of range")
        target = target_identifier % self.ring_size
        current = source
        path = [source]
        hops = 0
        # Greedy routing terminates in <= m + n hops even in degenerate cases;
        # the loop guard protects against bugs, not expected behaviour.
        for _ in range(self.m + self.n):
            succ = int(self.successors[current])
            if self._in_interval(target, int(self.identifiers[current]), int(self.identifiers[succ])):
                if succ != current:
                    hops += 1
                    path.append(succ)
                owner = succ
                messages = hops + (1 if count_reply else 0)
                return LookupResult(owner=owner, hops=hops, messages=messages, path=tuple(path))
            nxt = self._closest_preceding_finger(current, target)
            if nxt == current:
                nxt = succ
            hops += 1
            current = nxt
            path.append(current)
        raise RuntimeError("Chord lookup failed to converge; finger tables are inconsistent")

    def _closest_preceding_finger(self, node_index: int, target: int) -> int:
        base = int(self.identifiers[node_index])
        for k in range(self.m - 1, -1, -1):
            finger = int(self.fingers[node_index, k])
            fid = int(self.identifiers[finger])
            if self._in_interval(fid, base, target - 1):
                return finger
        return node_index

    # ------------------------------------------------------------------ #
    # random peer sampling (Assumption 2 of Theorem 14)
    # ------------------------------------------------------------------ #
    def sample_random_peer(self, source: int, rng: np.random.Generator) -> LookupResult:
        """Sample a peer by routing to a uniformly random identifier.

        The owner of a uniformly random identifier is a random node weighted
        by arc length; with uniformly placed identifiers the weights are
        exchangeable, and the cost (the quantity Theorem 14 needs: ``T``
        rounds, ``M`` messages per sample) is the greedy-routing cost.
        Experiments that need *exactly* uniform samples re-draw with
        rejection using :meth:`sample_uniform_peer`.
        """
        target = int(rng.integers(0, self.ring_size))
        return self.lookup(source, target)

    def sample_uniform_peer(self, source: int, rng: np.random.Generator) -> tuple[int, int, int]:
        """Exactly uniform peer sample with routing-cost accounting.

        Implements the standard rejection trick on top of identifier routing
        (accept the owner with probability proportional to the inverse of its
        arc length, normalised by the maximum arc).  Returns
        ``(peer_index, total_hops, total_messages)``.
        """
        # arcs[j] = length of the identifier arc *owned by* node j, i.e. the
        # gap between its predecessor's identifier and its own (the owner of
        # a random identifier is its successor on the ring).
        arcs = np.diff(
            np.concatenate([[self.identifiers[-1] - self.ring_size], self.identifiers])
        )
        total_hops = 0
        total_messages = 0
        # Expected number of attempts is max_arc / mean_arc = O(log n) whp,
        # but typically a small constant; cap attempts defensively.
        for _ in range(64 * self.m):
            result = self.sample_random_peer(source, rng)
            total_hops += result.hops
            total_messages += result.messages
            # Accept with probability min_arc / arc(owner): the owner of a
            # random identifier is hit with probability proportional to its
            # arc, so this rejection step makes the accepted peer exactly
            # uniform over nodes.
            threshold = float(arcs.min()) / float(arcs[result.owner])
            if rng.random() < threshold:
                return result.owner, total_hops, total_messages
        return result.owner, total_hops, total_messages  # pragma: no cover - defensive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChordNetwork(n={self.n}, m={self.m}, avg_degree={self.average_degree():.1f})"
