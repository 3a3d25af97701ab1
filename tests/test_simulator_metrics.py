"""Unit tests for repro.simulator.metrics."""

from __future__ import annotations

import pytest

from repro.simulator.metrics import MetricsCollector


class TestPhases:
    def test_default_phase_exists(self):
        m = MetricsCollector()
        assert m.messages_by_phase() == {"default": 0}

    def test_begin_phase_switches_and_creates(self):
        m = MetricsCollector()
        m.begin_phase("drr")
        m.record_messages("probe", 1)
        assert m.phase("drr").messages == 1
        assert m.phase("default").messages == 0

    def test_unknown_phase_lookup_raises(self):
        m = MetricsCollector()
        with pytest.raises(KeyError):
            m.phase("nope")

    def test_phase_order_preserved(self):
        m = MetricsCollector()
        for name in ("a", "b", "c"):
            m.begin_phase(name)
        assert list(m.messages_by_phase()) == ["default", "a", "b", "c"]


class TestRecording:
    def test_record_counts_words_and_losses(self):
        m = MetricsCollector()
        m.record_messages("push", 1, payload_words=2)
        m.record_messages("push", 1, payload_words=1, lost=1)
        assert m.total_messages == 2
        assert m.total_messages_lost == 1
        assert m.total_words == 3
        assert m.messages_by_kind()["push"] == 2

    def test_bulk_record(self):
        m = MetricsCollector()
        m.record_messages("gossip", 100, payload_words=2)
        assert m.total_messages == 100
        assert m.total_words == 200

    def test_negative_counts_rejected(self):
        m = MetricsCollector()
        with pytest.raises(ValueError):
            m.record_messages("x", -1)
        with pytest.raises(ValueError):
            m.record_round(-2)

    def test_rounds_accumulate_per_phase(self):
        m = MetricsCollector()
        m.record_round(3)
        m.begin_phase("p2")
        m.record_round(4)
        assert m.total_rounds == 7
        assert m.rounds_by_phase() == {"default": 3, "p2": 4}


