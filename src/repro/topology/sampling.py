"""Random-peer sampling on Chord, with its routing cost.

Assumption (2) of Theorem 14 requires "a routing protocol which allows any
node to communicate with a random node in the network in O(T) rounds and
using O(M) messages whp".  On Chord the paper cites King et al.'s sampler
(T = M = O(log n)); :class:`ChordSampler` draws a peer by identifier
routing, so (T, M) can be measured instead of assumed, and
``examples/p2p_chord.py`` measures it.  No experiment driver uses it: the
``chord`` experiment measures routing cost with batched lookups instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chord import ChordNetwork

__all__ = ["SampleCost", "ChordSampler"]


@dataclass(frozen=True)
class SampleCost:
    """Cost of drawing one (approximately) uniform random peer."""

    peer: int
    rounds: int
    messages: int


class ChordSampler:
    """Random peer sampling over Chord via identifier routing.

    The cost is the greedy-routing cost, i.e. ``T = M = O(log n)`` whp, which
    is exactly the assumption the paper plugs into Theorem 14 for Chord.
    """

    def __init__(self, chord: ChordNetwork) -> None:
        self.chord = chord

    def sample(self, source: int, rng: np.random.Generator) -> SampleCost:
        result = self.chord.sample_random_peer(source, rng)
        return SampleCost(peer=result.owner, rounds=result.hops, messages=result.messages)

