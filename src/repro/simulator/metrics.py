"""Message, bit, and round accounting.

The paper's headline claims are complexity statements -- ``O(log n)`` rounds
and ``O(n log log n)`` messages for DRR-gossip versus ``O(n log n)`` messages
for uniform gossip -- so the metrics collector is the measurement instrument
of the whole reproduction.  It counts every directed transmission the engine
delivers (and, separately, every transmission that was attempted but lost to
the failure model), broken down by message kind and by named protocol phase.

Accounting conventions
----------------------
* A *message* is one directed transmission.  A phone call in which both
  endpoints exchange information (a DRR probe answered by a rank, a
  Gossip-max inquiry answered by a value) therefore counts as **two**
  messages.  This matches Karp et al.'s accounting where both transmissions
  of a push-pull exchange are charged.
* *Bits* are ``payload_words * word_bits`` with ``word_bits = ceil(log2 n) +
  value_bits``; the engine fills in ``n`` so tests can assert that every
  protocol respects the ``O(log n + log s)`` per-message budget.
* *Rounds* count engine rounds.  Sub-steps within a round (the reply half of
  a call) do not increase the round counter.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ..observability import telemetry as _telemetry

__all__ = ["PhaseMetrics", "MetricsCollector"]


@dataclass
class PhaseMetrics:
    """Counters for a single named phase of a protocol."""

    name: str
    rounds: int = 0
    messages: int = 0
    messages_lost: int = 0
    words: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    #: transmissions addressed to a node that was dead when they arrived
    #: (churn runs only; a subset of the undeliverable count).  Kept out of
    #: :meth:`as_dict` when zero so churn-free results serialise unchanged.
    messages_to_dead: int = 0

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "rounds": self.rounds,
            "messages": self.messages,
            "messages_lost": self.messages_lost,
            "words": self.words,
            "messages_by_kind": dict(self.messages_by_kind),
        }
        if self.messages_to_dead:
            out["messages_to_dead"] = self.messages_to_dead
        return out


class MetricsCollector:
    """Accumulates counts for one protocol execution.

    A collector always has a *current phase*; protocols switch phases with
    :meth:`begin_phase` (e.g. ``"drr"``, ``"convergecast"``, ``"gossip"``),
    and the per-phase breakdown is what the Section 3.5 experiment
    (``phase-breakdown``, E11) reports.
    """

    DEFAULT_PHASE = "default"

    def __init__(self, n: int | None = None, value_bits: int = 32) -> None:
        if n is not None and n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.value_bits = value_bits
        self._phases: dict[str, PhaseMetrics] = {}
        self._phase_order: list[str] = []
        self._current = self._ensure_phase(self.DEFAULT_PHASE)

    # ------------------------------------------------------------------ #
    # phase management
    # ------------------------------------------------------------------ #
    def _ensure_phase(self, name: str) -> PhaseMetrics:
        if name not in self._phases:
            self._phases[name] = PhaseMetrics(name=name)
            self._phase_order.append(name)
        return self._phases[name]

    def begin_phase(self, name: str) -> None:
        """Switch the collector to phase ``name`` (creating it if needed)."""
        self._current = self._ensure_phase(name)
        tel = _telemetry._CURRENT
        if tel.enabled:
            tel.phase_begin(name)

    @property
    def current_phase(self) -> str:
        return self._current.name

    def phases(self) -> Iterator[PhaseMetrics]:
        for name in self._phase_order:
            yield self._phases[name]

    def phase(self, name: str) -> PhaseMetrics:
        if name not in self._phases:
            raise KeyError(f"unknown phase {name!r}; known: {self._phase_order}")
        return self._phases[name]

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_round(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("round count cannot be negative")
        self._current.rounds += count
        tel = _telemetry._CURRENT
        if tel.enabled:
            tel.round_tick()

    def record_message(self, kind: str, payload_words: int = 1, lost: bool = False) -> None:
        """Record one attempted transmission.

        Lost messages count toward the message complexity (the sender spent
        the transmission) but are tracked separately so experiments can
        report loss rates.
        """
        phase = self._current
        phase.messages += 1
        phase.words += max(0, payload_words)
        phase.messages_by_kind[str(kind)] += 1
        if lost:
            phase.messages_lost += 1

    def record_messages(self, kind: str, count: int, payload_words: int = 1, lost: int = 0) -> None:
        """Bulk-record ``count`` identical transmissions (columnar paths use this).

        ``lost`` of the ``count`` attempts never arrived; like in
        :meth:`record_message` they still count toward the message
        complexity but are tracked separately.  The vectorized substrate
        charges whole per-round batches through this method with the same
        lost-message semantics the engine applies per message, which is what
        keeps the two backends' accounting identical.
        """
        if count < 0:
            raise ValueError("message count cannot be negative")
        if not (0 <= lost <= count):
            raise ValueError(f"lost must be in [0, count], got {lost} of {count}")
        phase = self._current
        phase.messages += count
        phase.words += max(0, payload_words) * count
        phase.messages_by_kind[str(kind)] += count
        phase.messages_lost += lost

    def record_dead_targets(self, count: int) -> None:
        """Record ``count`` transmissions wasted on dead recipients.

        Only churn-aware call sites charge this (the messages were already
        counted by :meth:`record_messages`; this tracks the degradation
        axis separately), so churn-free runs never touch the counter.
        """
        if count < 0:
            raise ValueError("dead-target count cannot be negative")
        self._current.messages_to_dead += count

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #
    @property
    def total_rounds(self) -> int:
        return sum(p.rounds for p in self._phases.values())

    @property
    def total_messages(self) -> int:
        return sum(p.messages for p in self._phases.values())

    @property
    def total_messages_lost(self) -> int:
        return sum(p.messages_lost for p in self._phases.values())

    @property
    def total_words(self) -> int:
        return sum(p.words for p in self._phases.values())

    @property
    def total_messages_to_dead(self) -> int:
        return sum(p.messages_to_dead for p in self._phases.values())

    @property
    def total_bits(self) -> int:
        """Total bits under the paper's O(log n + log s) per-word model."""
        if self.n is None:
            word_bits = 64
        else:
            word_bits = max(1, math.ceil(math.log2(max(2, self.n)))) + self.value_bits
        return self.total_words * word_bits

    def messages_by_kind(self) -> Counter:
        total: Counter = Counter()
        for phase in self._phases.values():
            total.update(phase.messages_by_kind)
        return total

    def messages_by_phase(self) -> dict[str, int]:
        return {name: self._phases[name].messages for name in self._phase_order}

    def rounds_by_phase(self) -> dict[str, int]:
        return {name: self._phases[name].rounds for name in self._phase_order}

    # ------------------------------------------------------------------ #
    # merging / export
    # ------------------------------------------------------------------ #
    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counts into this one, phase by phase.

        Each phase of ``other`` lands in this collector's phase of the same
        name (created if missing), with rounds, messages, losses, words and
        per-kind counts summed.
        """
        for phase in other.phases():
            mine = self._ensure_phase(phase.name)
            mine.rounds += phase.rounds
            mine.messages += phase.messages
            mine.messages_lost += phase.messages_lost
            mine.words += phase.words
            mine.messages_by_kind.update(phase.messages_by_kind)
            mine.messages_to_dead += phase.messages_to_dead

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total_rounds": self.total_rounds,
            "total_messages": self.total_messages,
            "total_messages_lost": self.total_messages_lost,
            "total_words": self.total_words,
            "phases": [p.as_dict() for p in self.phases()],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsCollector(rounds={self.total_rounds}, "
            f"messages={self.total_messages}, phases={list(self._phase_order)})"
        )
