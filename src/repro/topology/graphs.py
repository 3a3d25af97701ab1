"""Graph generators for the sparse-network experiments.

Section 4 of the paper analyses Local-DRR on *arbitrary* undirected graphs and
instantiates the result on d-regular graphs and on Chord.  The experiments in
this repository exercise the theorems on a spread of standard topologies so
that the ``O(log n)`` tree-height bound (Theorem 11) and the
``sum 1/(d_i+1)`` tree-count bound (Theorem 13) are visibly topology
independent:

* ring / cycle (d = 2, the worst case for tree height intuition),
* 2-D torus grid (d = 4),
* hypercube (d = log n),
* random d-regular graphs,
* Erdős–Rényi G(n, p) graphs (non-regular degrees),
* complete graph (sanity overlap with the Sections 2-3 model).

Chord gets its own module because it also needs routing (finger tables).
"""

from __future__ import annotations

import math

import numpy as np

from .base import Topology

__all__ = [
    "complete_graph",
    "ring_graph",
    "grid_graph",
    "hypercube_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "GRAPH_FAMILIES",
    "make_graph",
]


def complete_graph(n: int) -> Topology:
    """Complete graph K_n: the model of Sections 2-3."""
    if n <= 0:
        raise ValueError("n must be positive")
    u, v = np.triu_indices(n, k=1)
    return Topology.from_edge_arrays("complete", n, u, v)


def ring_graph(n: int) -> Topology:
    """Cycle C_n; every node has degree 2 (n >= 3)."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    ids = np.arange(n, dtype=np.int64)
    return Topology.from_edge_arrays("ring", n, ids, (ids + 1) % n)


def grid_graph(n: int) -> Topology:
    """2-D torus on the largest r x c factorisation of n (degree 4).

    ``n`` must factor as r*c with r, c >= 3 so the torus has no duplicate
    edges; perfect squares are the usual choice in the experiments.
    """
    root = int(math.isqrt(n))
    rows, cols = 0, 0
    for r in range(root, 2, -1):
        if n % r == 0 and n // r >= 3:
            rows, cols = r, n // r
            break
    if rows == 0:
        raise ValueError(
            f"cannot factor n={n} as r*c with r, c >= 3; pick a composite n (e.g. a square)"
        )
    r, c = np.divmod(np.arange(n, dtype=np.int64), cols)
    east = r * cols + (c + 1) % cols
    south = ((r + 1) % rows) * cols + c
    ids = np.arange(n, dtype=np.int64)
    return Topology.from_edge_arrays(
        "grid", n, np.concatenate([ids, ids]), np.concatenate([east, south])
    )


def hypercube_graph(n: int) -> Topology:
    """Boolean hypercube; requires n to be a power of two (degree log2 n)."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"hypercube needs n to be a power of two, got {n}")
    dims = n.bit_length() - 1
    ids = np.arange(n, dtype=np.int64)
    u = np.repeat(ids, dims)
    v = u ^ (np.int64(1) << np.tile(np.arange(dims, dtype=np.int64), n))
    keep = u < v
    return Topology.from_edge_arrays("hypercube", n, u[keep], v[keep])


def random_regular_graph(n: int, d: int, rng: np.random.Generator) -> Topology:
    """Random d-regular simple graph via the configuration model with repair.

    The pairing model produces an (in expectation) constant number of
    self-loops and duplicate edges; instead of resampling the whole pairing
    — whose acceptance probability ``~exp(-(d^2-1)/4)`` makes full rejection
    hopeless at ``n = 10^6`` — the offending pairs are repaired by
    degree-preserving stub swaps with uniformly chosen partner pairs (the
    standard switching construction).  A handful of iterations suffices;
    ``networkx.random_regular_graph`` remains the fallback for degenerate
    parameter corners where switching stalls.
    """
    if d < 0 or d >= n:
        raise ValueError(f"degree d={d} must satisfy 0 <= d < n={n}")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph to exist")
    if d == 0:
        return Topology.from_edges("regular-0", n, [])
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    for _ in range(500):
        canon = np.sort(pairs, axis=1)
        keys = canon[:, 0].astype(np.int64) * n + canon[:, 1]
        order = np.argsort(keys, kind="stable")
        dup = np.zeros(len(keys), dtype=bool)
        dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        bad = np.flatnonzero(dup | (pairs[:, 0] == pairs[:, 1]))
        if bad.size == 0:
            return Topology.from_edge_arrays(f"regular-{d}", n, pairs[:, 0], pairs[:, 1])
        partners = rng.integers(0, len(pairs), size=bad.size)
        # Swap second endpoints with distinct, themselves-good partner pairs;
        # anything still bad is retried next iteration.
        ok = ~np.isin(partners, bad) & (np.bincount(partners, minlength=len(pairs))[partners] == 1)
        swap_a, swap_b = bad[ok], partners[ok]
        pairs[swap_a, 1], pairs[swap_b, 1] = pairs[swap_b, 1].copy(), pairs[swap_a, 1].copy()
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    graph = nx.random_regular_graph(d, n, seed=seed)
    topo = Topology.from_networkx(f"regular-{d}", graph)
    return topo


def erdos_renyi_graph(n: int, p: float, rng: np.random.Generator) -> Topology:
    """G(n, p) with the standard `p >= c ln n / n` connectivity caveat left to the caller."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    upper = np.triu_indices(n, k=1)
    mask = rng.random(len(upper[0])) < p
    return Topology.from_edge_arrays("erdos-renyi", n, upper[0][mask], upper[1][mask])


#: The graph families a :class:`~repro.api.TopologySpec` can name (run specs,
#: and through them the ``local-drr`` experiment).  Values are callables
#: ``(n, rng) -> Topology``; parameters beyond n have fixed defaults.
GRAPH_FAMILIES = {
    "complete": lambda n, rng: complete_graph(n),
    "ring": lambda n, rng: ring_graph(n),
    "grid": lambda n, rng: grid_graph(n),
    "hypercube": lambda n, rng: hypercube_graph(n),
    "regular4": lambda n, rng: random_regular_graph(n, 4, rng),
    "regular8": lambda n, rng: random_regular_graph(n, 8, rng),
    "erdos-renyi": lambda n, rng: erdos_renyi_graph(
        n, min(1.0, 3.0 * math.log(max(2, n)) / max(1, n)), rng
    ),
}


def make_graph(family: str, n: int, rng: np.random.Generator) -> Topology:
    """Instantiate a named graph family at size ``n``."""
    try:
        factory = GRAPH_FAMILIES[family]
    except KeyError as exc:
        raise ValueError(
            f"unknown graph family {family!r}; known: {sorted(GRAPH_FAMILIES)}"
        ) from exc
    return factory(n, rng)
