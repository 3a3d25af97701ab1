"""Unit tests for the Chord DHT substrate and peer sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.topology import ChordNetwork, ChordSampler


class TestChordConstruction:
    def test_requires_two_nodes(self, rng):
        with pytest.raises(ValueError):
            ChordNetwork(1, rng)

    def test_identifier_space_large_enough(self, rng):
        with pytest.raises(ValueError):
            ChordNetwork(64, rng, m=5)

    def test_identifiers_sorted_and_unique(self, rng):
        chord = ChordNetwork(64, rng)
        ids = chord.identifiers
        assert np.all(np.diff(ids) > 0)

    def test_degree_is_logarithmic(self, rng):
        chord = ChordNetwork(256, rng)
        avg = chord.average_degree()
        assert avg <= 4 * math.log2(256)
        assert avg >= 0.5 * math.log2(256)

    def test_topology_is_connected(self, rng):
        topo = ChordNetwork(128, rng).to_topology()
        assert topo.is_connected()
        assert topo.n == 128


class TestChordRouting:
    def test_lookup_owner_is_successor_of_target(self, rng):
        chord = ChordNetwork(64, rng)
        target = int(rng.integers(0, chord.ring_size))
        result = chord.lookup(0, target)
        expected_owner = chord._successor_index_of_identifier(target)
        assert result.owner == expected_owner

    def test_lookup_hops_logarithmic(self, rng):
        chord = ChordNetwork(512, rng)
        hops = [chord.lookup(int(rng.integers(0, 512)), int(rng.integers(0, chord.ring_size))).hops for _ in range(200)]
        assert max(hops) <= 3 * math.log2(512)

    def test_lookup_from_every_source_terminates(self, rng):
        chord = ChordNetwork(32, rng)
        for source in range(32):
            result = chord.lookup(source, 12345)
            assert 0 <= result.owner < 32

    def test_lookup_path_starts_at_source(self, rng):
        chord = ChordNetwork(32, rng)
        result = chord.lookup(5, 999)
        assert result.path[0] == 5

    def test_invalid_source_rejected(self, rng):
        chord = ChordNetwork(32, rng)
        with pytest.raises(ValueError):
            chord.lookup(99, 0)

    def test_count_reply_adds_one_message(self, rng):
        chord = ChordNetwork(32, rng)
        target = 777
        without = chord.lookup(3, target, count_reply=False)
        with_reply = chord.lookup(3, target, count_reply=True)
        assert with_reply.messages == without.messages + 1


class TestSamplers:
    def test_chord_sampler_costs_are_bounded(self, rng):
        chord = ChordNetwork(128, rng)
        sampler = ChordSampler(chord)
        costs = [sampler.sample(0, rng) for _ in range(50)]
        assert all(c.messages <= 3 * math.log2(128) for c in costs)
        assert all(0 <= c.peer < 128 for c in costs)
