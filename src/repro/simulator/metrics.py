"""Message, word, and round accounting.

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
* *Words* are the payload width of a message (``payload_words``: an
  address, a value, a weight, ...); the collector sums them per phase, and
  :class:`~repro.api.RunResult` reports the total as ``words``.
* *Rounds* count engine rounds.  Sub-steps within a round (the reply half of
  a call) do not increase the round counter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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
    #: (churn runs only; a subset of the undeliverable count)
    messages_to_dead: int = 0


class MetricsCollector:
    """Accumulates counts for one protocol execution.

    A collector always has a *current phase*; protocols switch phases with
    :meth:`begin_phase` (e.g. ``"drr"``, ``"convergecast"``, ``"gossip"``),
    and the per-phase breakdown is what the Section 3.5 experiment
    (``phase-breakdown``, E11) reports.
    """

    DEFAULT_PHASE = "default"

    def __init__(self) -> None:
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

    def record_messages(self, kind: str, count: int, payload_words: int = 1, lost: int = 0) -> None:
        """Bulk-record ``count`` identical transmissions (columnar paths use this).

        ``lost`` of the ``count`` attempts never arrived; they still count
        toward the message complexity (the sender spent the transmission)
        but are tracked separately so experiments can report loss rates.
        The vectorized substrate charges whole per-round batches through
        this method and the engine charges each delivery batch per
        ``(kind, payload_words)`` group, which is what keeps the two
        backends' accounting identical.
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

    def messages_by_kind(self) -> Counter:
        total: Counter = Counter()
        for phase in self._phases.values():
            total.update(phase.messages_by_kind)
        return total

    def messages_by_phase(self) -> dict[str, int]:
        return {name: self._phases[name].messages for name in self._phase_order}

    def rounds_by_phase(self) -> dict[str, int]:
        return {name: self._phases[name].rounds for name in self._phase_order}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsCollector(rounds={self.total_rounds}, "
            f"messages={self.total_messages}, phases={list(self._phase_order)})"
        )
