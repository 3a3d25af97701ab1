"""Topology substrate: graph families, the Chord DHT, and its peer sampler."""

from .base import Topology
from .chord import ChordNetwork, LookupResult
from .graphs import (
    GRAPH_FAMILIES,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    make_graph,
    random_regular_graph,
    ring_graph,
)
from .sampling import ChordSampler, SampleCost

__all__ = [
    "Topology",
    "ChordNetwork",
    "LookupResult",
    "GRAPH_FAMILIES",
    "complete_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "hypercube_graph",
    "make_graph",
    "random_regular_graph",
    "ring_graph",
    "ChordSampler",
    "SampleCost",
]
