"""Protocol node interface for the synchronous round engine.

A protocol is implemented as a class whose instances live one-per-node and
react to two callbacks per round:

``begin_round``
    Called once per round for every alive node, in node-id order.  The node
    may *initiate* at most ``calls_per_round`` transmissions here (one, in
    the random phone-call model of the paper).

``on_messages``
    Called when messages addressed to the node are delivered.  The node may
    return reply/forward transmissions; these are delivered within the same
    round (the "information can be exchanged in both directions along the
    link" clause of the model) up to the engine's sub-step budget, after
    which they spill into the next round.

Nodes signal completion through :meth:`ProtocolNode.is_complete`; the engine
stops when every alive node is complete (or a protocol-level
:class:`~repro.simulator.engine.StopCondition` fires).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .message import Message, Send

__all__ = ["RoundContext", "ProtocolNode", "PassiveNode"]


@dataclass
class RoundContext:
    """Read-only view of the world handed to protocol callbacks.

    Attributes
    ----------
    round_index:
        Zero-based index of the current round.
    n:
        Total number of nodes in the network (including crashed ones), i.e.
        the ``n`` that appears in the paper's bounds.
    rng:
        The shared generator all protocol randomness must come from.
    alive:
        Boolean array of length ``n``; ``alive[i]`` is False for initially
        crashed nodes.
    """

    round_index: int
    n: int
    rng: np.random.Generator
    alive: np.ndarray

    def random_node(self, exclude: int | None = None) -> int:
        """Sample a node uniformly at random from all ``n`` nodes.

        This is the primitive the random phone-call model gives every node;
        crashed nodes can still be *selected* (the call simply goes
        unanswered), which mirrors the paper's assumption that crashes happen
        before the algorithm starts and are not detectable a priori.
        """
        if exclude is None:
            return int(self.rng.integers(0, self.n))
        pick = int(self.rng.integers(0, self.n - 1))
        return pick if pick < exclude else pick + 1


class ProtocolNode(abc.ABC):
    """Base class for per-node protocol state machines."""

    #: How many transmissions the node may initiate in ``begin_round``.
    #: 1 in the phone-call model; Local-DRR (message-passing model on sparse
    #: graphs) overrides this because a node may message all neighbours in
    #: one round.
    calls_per_round: int = 1

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)

    # ------------------------------------------------------------------ #
    # engine callbacks
    # ------------------------------------------------------------------ #
    def begin_round(self, ctx: RoundContext) -> list[Send]:
        """Initiate calls for this round.  Default: stay silent."""
        return []

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        """React to delivered messages, optionally replying/forwarding."""
        return []

    def on_deactivated(self, round_index: int) -> None:
        """Called when mid-run churn kills this node.  Default: no-op.

        A dead node gets no further ``begin_round``/``on_messages`` calls;
        protocols that track per-node liveness state override this.
        """

    def on_activated(self, round_index: int) -> None:
        """Called when mid-run churn (re)activates this node.  Default: no-op.

        Protocols override this to re-seed the node's state from its local
        value (a joining node restarts; it does not resume).
        """

    @abc.abstractmethod
    def is_complete(self) -> bool:
        """Return True once the node has finished its part of the protocol."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(node_id={self.node_id}, complete={self.is_complete()})"


class PassiveNode(ProtocolNode):
    """A node that never initiates and is always complete.

    Useful as a stand-in for crashed nodes in tests and as a base class for
    protocols in which only a subset of nodes (e.g. tree roots in Phase III)
    take an active role while the rest merely forward.
    """

    def is_complete(self) -> bool:
        return True
