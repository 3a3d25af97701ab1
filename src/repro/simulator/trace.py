"""Optional execution tracing.

Tracing is off by default (it allocates per-message records, which matters
when an experiment delivers tens of millions of messages), and is switched on
per-engine for debugging, for the worked examples, and for the tests that
assert fine-grained protocol behaviour such as "a leaf sends exactly one
convergecast message".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .message import Message

__all__ = ["TraceEvent", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One delivered or lost message, as observed by the engine."""

    round_index: int
    substep: int
    message: Message
    delivered: bool

    def describe(self) -> str:
        status = "->" if self.delivered else "-x"
        return (
            f"r{self.round_index}.{self.substep} "
            f"{self.message.sender}{status}{self.message.recipient} "
            f"{self.message.kind}{dict(self.message.payload)}"
        )


class NullTracer:
    """No-op tracer used when tracing is disabled."""

    enabled = False

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - trivial
        pass

    def events(self) -> Iterator[TraceEvent]:  # pragma: no cover - trivial
        return iter(())


class Tracer(NullTracer):
    """Records every transmission the engine processes.

    Parameters
    ----------
    predicate:
        Optional filter; only events for which ``predicate(event)`` is true
        are stored.  Useful to trace a single node or message kind without
        paying for the rest.
    limit:
        Hard cap on stored events to protect against runaway memory use;
        events past the limit are counted but dropped.
    """

    enabled = True

    def __init__(
        self,
        predicate: Callable[[TraceEvent], bool] | None = None,
        limit: int = 1_000_000,
    ) -> None:
        self.predicate = predicate
        self.limit = limit
        self.dropped = 0
        self._events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if self.predicate is not None and not self.predicate(event):
            return
        if len(self._events) >= self.limit:
            self.dropped += 1
            return
        self._events.append(event)

    def events(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def sent_by(self, node_id: int) -> list[TraceEvent]:
        return [e for e in self._events if e.message.sender == node_id]

    def received_by(self, node_id: int) -> list[TraceEvent]:
        return [
            e for e in self._events if e.message.recipient == node_id and e.delivered
        ]
