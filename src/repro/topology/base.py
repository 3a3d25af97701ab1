"""Topology abstraction used by the sparse-network experiments (Section 4).

The complete-graph experiments of Sections 2-3 do not need an explicit
topology (any node can call any other).  Section 4 runs Local-DRR and gossip
over arbitrary undirected graphs, so we provide a :class:`Topology` wrapper
with the queries the protocols and the analysis need: neighbour lists,
degrees, connectivity, and the ``sum(1/(d_i+1))`` quantity of Theorem 13.

Storage is columnar: the adjacency lives in CSR form (``indptr`` /
``indices`` int64 arrays, neighbour lists sorted ascending).  That is what
lets the vectorized topology kernel run Local-DRR at ``n = 10^6`` — a
round's worth of per-edge transmissions is two flat arrays, not a million
Python tuples.  The tuple view :meth:`neighbors` is kept for the
message-level engine and for tests; it is materialised per call.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Topology"]


class Topology:
    """An undirected simple graph over node ids ``0 .. n-1`` (CSR-backed)."""

    __slots__ = ("name", "_indptr", "_indices")

    def __init__(self, name: str, *, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.name = name
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_arrays(cls, name: str, n: int, u: np.ndarray, v: np.ndarray) -> "Topology":
        """Build a topology from undirected edge arrays (the columnar path).

        Self-loops are rejected and duplicate edges are collapsed; both are
        modelling errors rather than things a physical network would have.
        Runs entirely in NumPy, so graph construction keeps up with the
        vectorized kernel at ``n`` in the millions.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("edge arrays must have identical shapes")
        if u.size:
            lo = min(int(u.min()), int(v.min()))
            hi = max(int(u.max()), int(v.max()))
            if lo < 0 or hi >= n:
                bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
                first = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"edge ({int(u[first])}, {int(v[first])}) references a node outside 0..{n - 1}"
                )
            loops = u == v
            if loops.any():
                node = int(u[np.flatnonzero(loops)[0]])
                raise ValueError(f"self-loop on node {node} is not allowed")
            # canonicalise, dedupe, then mirror into both directions
            a = np.minimum(u, v)
            b = np.maximum(u, v)
            keys = np.unique(a * np.int64(n) + b)
            a, b = keys // n, keys % n
            src = np.concatenate([a, b])
            dst = np.concatenate([b, a])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        else:
            src = dst = np.zeros(0, dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
        return cls(name, indptr=indptr, indices=dst)

    @classmethod
    def from_edges(cls, name: str, n: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        """Build a topology from an undirected edge list."""
        pairs = np.fromiter(
            (int(x) for edge in edges for x in edge), dtype=np.int64
        ).reshape(-1, 2)
        return cls.from_edge_arrays(name, n, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_networkx(cls, name: str, graph) -> "Topology":
        """Build a topology from a ``networkx`` graph with integer-labelable nodes."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls.from_edges(name, len(nodes), edges)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return len(self._indptr) - 1

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices: concatenated sorted neighbour lists."""
        return self._indices

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All *directed* edges as ``(senders, receivers)`` arrays.

        Every undirected edge appears in both directions; rows are grouped
        by sender (ascending) with receivers ascending within a sender —
        exactly the order in which engine nodes enumerate their neighbours.
        """
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees()), self._indices

    def neighbors(self, node_id: int) -> Sequence[int]:
        return tuple(
            int(x) for x in self._indices[self._indptr[node_id]:self._indptr[node_id + 1]]
        )

    def degree(self, node_id: int) -> int:
        return int(self._indptr[node_id + 1] - self._indptr[node_id])

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    @property
    def edge_count(self) -> int:
        return int(self._indices.size // 2)

    def edges(self) -> Iterable[tuple[int, int]]:
        src, dst = self.edge_arrays()
        forward = src < dst
        return zip(src[forward].tolist(), dst[forward].tolist())

    def is_regular(self) -> bool:
        degs = self.degrees()
        return bool(degs.size == 0 or (degs == degs[0]).all())

    def expected_local_drr_trees(self) -> float:
        """Theorem 13's expectation: ``E[#trees] = sum_i 1/(d_i + 1)``."""
        return float(np.sum(1.0 / (self.degrees() + 1.0)))

    def is_connected(self) -> bool:
        """Frontier BFS over the CSR arrays (vectorised; handles n = 10^6)."""
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        degrees = self.degrees()
        while frontier.size:
            counts = degrees[frontier]
            nxt = self._indices[
                np.repeat(self._indptr[frontier], counts)
                + (np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts))
            ]
            nxt = nxt[~seen[nxt]]
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            seen[nxt] = True
            frontier = nxt
        return bool(seen.all())

    # ------------------------------------------------------------------ #
    # spec serialisation (the run API's explicit-topology form)
    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        """Serialise this concrete graph as an explicit-edge topology spec.

        The returned dict is the ``family = "explicit"`` form accepted by
        :class:`repro.api.TopologySpec` (and :meth:`from_spec`), so any
        topology — generated or hand-built — can be pinned inside a
        :class:`repro.api.RunSpec` and replayed on another host without
        re-running its generator.
        """
        return {
            "family": "explicit",
            "name": self.name,
            "n": self.n,
            "edges": [[int(u), int(v)] for u, v in self.edges()],
        }

    @classmethod
    def from_spec(cls, spec) -> "Topology":
        """Rebuild a topology from its explicit spec dict (identity on instances)."""
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, dict) or spec.get("family", "explicit") != "explicit":
            raise ValueError(
                "Topology.from_spec expects an explicit-edge spec dict "
                "(generated families are built by repro.api.TopologySpec)"
            )
        edges = spec.get("edges")
        if edges is None or "n" not in spec:
            raise ValueError("explicit topology spec needs 'n' and 'edges'")
        return cls.from_edges(str(spec.get("name", "explicit")), int(spec["n"]), [tuple(e) for e in edges])

    def to_networkx(self):
        """Export to a ``networkx.Graph`` (lazy import keeps startup light)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(name={self.name!r}, n={self.n}, edges={self.edge_count})"
