"""Random-node sampling on sparse topologies.

Assumption (2) of Theorem 14 requires "a routing protocol which allows any
node to communicate with a random node in the network in O(T) rounds and
using O(M) messages whp".  On Chord the paper cites King et al.'s sampler
(T = M = O(log n)); on general graphs the standard tool is a random walk of
length proportional to the mixing time.  This module implements both, so
(T, M) can be measured instead of assumed; ``examples/p2p_chord.py``
measures the Chord sampler's.  No experiment driver uses it: the ``chord``
experiment measures routing cost with batched lookups instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Topology
from .chord import ChordNetwork

__all__ = ["SampleCost", "RandomWalkSampler", "ChordSampler", "uniformity_l1_error"]


@dataclass(frozen=True)
class SampleCost:
    """Cost of drawing one (approximately) uniform random peer."""

    peer: int
    rounds: int
    messages: int


class RandomWalkSampler:
    """Approximate uniform sampling by a lazy random walk on a graph.

    A lazy simple random walk of length ``Theta(mixing time)`` lands on a
    node with probability proportional to its degree; on regular graphs that
    is exactly uniform, and on near-regular graphs (grids, Chord overlays,
    random regular graphs) the bias is negligible for the experiments here.
    The Metropolis-Hastings variant (``unbiased=True``) corrects the degree
    bias and is exactly uniform in the limit on any connected graph.
    """

    def __init__(self, topology: Topology, walk_length: int | None = None, unbiased: bool = True) -> None:
        if not topology.is_connected():
            raise ValueError("random-walk sampling requires a connected topology")
        self.topology = topology
        n = topology.n
        # Theta(log^2 n) steps cover the mixing time of every topology used in
        # the experiments (ring excepted -- callers can pass a longer walk).
        self.walk_length = walk_length if walk_length is not None else max(4, int(np.ceil(np.log2(n))) ** 2)
        self.unbiased = unbiased

    def sample(self, source: int, rng: np.random.Generator) -> SampleCost:
        current = source
        for _ in range(self.walk_length):
            neighbors = self.topology.neighbors(current)
            if not neighbors:
                break
            candidate = int(neighbors[int(rng.integers(0, len(neighbors)))])
            if self.unbiased:
                # Metropolis filter: accept with min(1, deg(u)/deg(v)).
                du = self.topology.degree(current)
                dv = self.topology.degree(candidate)
                if rng.random() < min(1.0, du / dv):
                    current = candidate
            else:
                current = candidate
        # One message per walk step (the token moves), one round per step.
        return SampleCost(peer=current, rounds=self.walk_length, messages=self.walk_length)


class ChordSampler:
    """Uniform peer sampling over Chord via identifier routing.

    The cost is the greedy-routing cost, i.e. ``T = M = O(log n)`` whp, which
    is exactly the assumption the paper plugs into Theorem 14 for Chord.
    """

    def __init__(self, chord: ChordNetwork) -> None:
        self.chord = chord

    def sample(self, source: int, rng: np.random.Generator) -> SampleCost:
        result = self.chord.sample_random_peer(source, rng)
        return SampleCost(peer=result.owner, rounds=result.hops, messages=result.messages)


def uniformity_l1_error(samples: np.ndarray, n: int) -> float:
    """L1 distance between the empirical sample distribution and uniform.

    Used by tests to check that the samplers are close enough to uniform for
    the gossip analysis to apply (the paper only needs near-uniformity up to
    constant factors).
    """
    counts = np.bincount(samples, minlength=n).astype(float)
    if counts.sum() == 0:
        return 1.0
    empirical = counts / counts.sum()
    return float(np.abs(empirical - 1.0 / n).sum())
