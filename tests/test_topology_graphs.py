"""Unit tests for repro.topology.base and repro.topology.graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    Topology,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    make_graph,
    random_regular_graph,
    ring_graph,
)


class TestTopologyBase:
    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology.from_edges("x", 3, [(0, 0)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Topology.from_edges("x", 3, [(0, 5)])

    def test_duplicate_edges_collapsed(self):
        topo = Topology.from_edges("x", 3, [(0, 1), (1, 0), (0, 1)])
        assert topo.edge_count == 1

    def test_degrees_and_neighbors(self):
        topo = Topology.from_edges("path", 3, [(0, 1), (1, 2)])
        assert topo.degree(1) == 2
        assert topo.neighbors(1) == (0, 2)
        assert list(topo.edges()) == [(0, 1), (1, 2)]

    def test_connectivity(self):
        connected = Topology.from_edges("path", 3, [(0, 1), (1, 2)])
        disconnected = Topology.from_edges("pair", 3, [(0, 1)])
        assert connected.is_connected()
        assert not disconnected.is_connected()

    def test_expected_local_drr_trees_matches_formula(self):
        topo = ring_graph(10)
        assert topo.expected_local_drr_trees() == pytest.approx(10 / 3)

    def test_networkx_round_trip(self):
        topo = grid_graph(16)
        back = Topology.from_networkx("grid", topo.to_networkx())
        assert back.edge_count == topo.edge_count
        assert back.n == topo.n


class TestGenerators:
    def test_complete_graph(self):
        topo = complete_graph(6)
        assert topo.edge_count == 15
        assert topo.is_regular()

    def test_ring_graph(self):
        topo = ring_graph(8)
        assert all(topo.degree(i) == 2 for i in range(8))
        assert topo.is_connected()

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_grid_graph_degree_four(self):
        topo = grid_graph(36)
        assert all(topo.degree(i) == 4 for i in range(36))
        assert topo.is_connected()

    def test_grid_graph_rejects_prime(self):
        with pytest.raises(ValueError):
            grid_graph(13)

    def test_hypercube(self):
        topo = hypercube_graph(16)
        assert all(topo.degree(i) == 4 for i in range(16))
        assert topo.is_connected()

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError):
            hypercube_graph(12)

    def test_random_regular(self, rng):
        topo = random_regular_graph(64, 4, rng)
        assert all(topo.degree(i) == 4 for i in range(64))

    def test_random_regular_validates_parameters(self, rng):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, rng)  # odd n*d
        with pytest.raises(ValueError):
            random_regular_graph(4, 4, rng)  # d >= n

    def test_erdos_renyi_edge_probability(self, rng):
        topo = erdos_renyi_graph(100, 0.1, rng)
        expected = 0.1 * 100 * 99 / 2
        assert abs(topo.edge_count - expected) < 0.35 * expected

    def test_erdos_renyi_invalid_p(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5, rng)

    def test_make_graph_registry(self, rng):
        topo = make_graph("ring", 16, rng)
        assert topo.n == 16
        with pytest.raises(ValueError):
            make_graph("nope", 16, rng)
