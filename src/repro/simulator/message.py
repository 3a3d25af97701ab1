"""Message objects exchanged by protocol nodes.

The paper limits message length to ``O(log n + log s)`` bits, where ``s`` is
the range of the node values (Section 2).  We model that budget explicitly:
every :class:`Message` carries ``payload_words``, the number of
machine-word-sized fields it transports (a node address, a value, a weight,
a tree size, ...).  The metrics collector sums the words of every
transmission (``RunResult.words``), so a protocol that ships whole value
vectors around shows in its word count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["MessageKind", "Message", "Send"]


class MessageKind(str, enum.Enum):
    """Well-known message kinds used by the bundled protocols.

    Protocols are free to define additional string kinds; the enum exists so
    that metrics break down cleanly for the algorithms shipped with the
    reproduction and so tests can refer to kinds without magic strings.
    """

    #: Phase I (DRR): ask a sampled node for its rank.
    PROBE = "probe"
    #: Phase I (DRR): reply to a probe with the responder's rank.
    RANK = "rank"
    #: Phase I (DRR): tell the chosen parent that the sender is its child.
    CONNECT = "connect"
    #: Phase II: convergecast payload travelling up a tree.
    CONVERGECAST = "convergecast"
    #: Phase II: broadcast payload travelling down a tree (root address or
    #: final aggregate).
    BROADCAST = "broadcast"
    #: Phase III: gossip push carrying a running aggregate between roots.
    GOSSIP = "gossip"
    #: Phase III: forwarding hop from a non-root to its root.
    FORWARD = "forward"
    #: Phase III (Gossip-max sampling procedure): inquiry sent by a root.
    INQUIRY = "inquiry"
    #: Phase III (Gossip-max sampling procedure): response to an inquiry.
    INQUIRY_REPLY = "inquiry-reply"
    #: Baselines: uniform-gossip push (Kempe et al. push-sum / push-max).
    PUSH = "push"
    #: Baselines: pull request / rumor-spreading pull.
    PULL = "pull"
    #: Overlay routing: one hop of a Chord identifier lookup.
    LOOKUP = "lookup"
    #: Overlay routing: the owner's reply to a completed Chord lookup.
    LOOKUP_REPLY = "lookup-reply"
    #: Baselines / misc: generic application payload.
    DATA = "data"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Message:
    """A single directed transmission delivered by the engine.

    Parameters
    ----------
    sender:
        Node id of the originating node.
    recipient:
        Node id of the destination node.
    kind:
        A :class:`MessageKind` or free-form string tagging the message type;
        used for metrics break-down and by protocol dispatch code.
    payload:
        Arbitrary (read-only) mapping describing the content.  Protocols in
        this repository only ever store numbers and node ids here, keeping
        the ``O(log n + log s)`` bound honest.
    payload_words:
        Number of word-sized fields the message carries, used for word
        accounting.  Defaults to the number of payload entries.
    round_sent:
        The engine stamps the round in which the message was handed over for
        delivery.  ``-1`` until stamped.
    nonce:
        Disambiguator consumed by the loss oracle when a protocol can send
        two same-kind messages between the same pair in one round (e.g. a
        Phase III forwarder relaying two pushes, or two Chord routes
        crossing one link).  ``0`` for the common unique case.
    """

    sender: int
    recipient: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    payload_words: int = -1
    round_sent: int = -1
    nonce: int = 0

    def __post_init__(self) -> None:
        if self.payload_words < 0:
            object.__setattr__(self, "payload_words", max(1, len(self.payload)))
        if isinstance(self.kind, MessageKind):
            object.__setattr__(self, "kind", self.kind.value)

    def stamped(self, round_index: int) -> "Message":
        """Return a copy carrying the round in which it was sent."""
        return Message(
            sender=self.sender,
            recipient=self.recipient,
            kind=self.kind,
            payload=self.payload,
            payload_words=self.payload_words,
            round_sent=round_index,
            nonce=self.nonce,
        )

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into the payload mapping."""
        return self.payload.get(key, default)


@dataclass(frozen=True)
class Send:
    """A request from a protocol node to transmit a message.

    ``Send`` is what protocol callbacks return; the engine converts it into a
    stamped :class:`Message`, applies the failure model, and updates metrics.
    Keeping the two types separate makes it impossible for a protocol to forge
    sender ids or round stamps.
    """

    recipient: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    payload_words: int = -1
    nonce: int = 0

    def to_message(self, sender: int) -> Message:
        return Message(
            sender=sender,
            recipient=self.recipient,
            kind=self.kind,
            payload=self.payload,
            payload_words=self.payload_words,
            nonce=self.nonce,
        )
