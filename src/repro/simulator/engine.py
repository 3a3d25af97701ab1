"""The synchronous round engine for the random phone-call model.

One engine run executes one protocol (a population of
:class:`~repro.simulator.node.ProtocolNode` instances) over a
:class:`~repro.simulator.network.Network` until every alive node reports
completion, an optional stop condition fires, or the round budget runs out.

Round structure
---------------
Per Section 2 of the paper, rounds are synchronous and each node may place
one call per round.  Information flows both ways over an established call, so
the engine processes every round in *sub-steps*:

1. sub-step 0: every alive node's ``begin_round`` output is delivered;
2. sub-steps 1..max_substeps-1: messages returned by ``on_messages``
   (replies and forwards) are delivered within the same round;
3. anything still pending after the sub-step budget is carried over and
   delivered at the start of the next round, before ``begin_round``.

The default of two sub-steps models "call, then answer over the same link".
Phase III of DRR-gossip uses three (call a random node, it forwards to its
root, the root may answer), which the corresponding protocols request via
``EngineConfig.max_substeps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolViolation, RoundLimitExceeded
from .message import Message, Send
from .metrics import MetricsCollector
from .network import Network
from .node import ProtocolNode, RoundContext
from .trace import NullTracer, TraceEvent, Tracer

__all__ = ["EngineConfig", "EngineResult", "SynchronousEngine", "default_round_limit"]


def default_round_limit(n: int) -> int:
    """A generous default round budget of ``Theta(log^2 n)``.

    Every protocol in the repository is ``O(log n)`` or ``O(log^2 n)`` rounds;
    the default budget flags non-termination bugs quickly without tripping on
    legitimate slow runs at small ``n``.
    """
    return max(64, 8 * int(math.ceil(math.log2(max(2, n)))) ** 2)


@dataclass
class EngineConfig:
    """Tunables of a single engine run."""

    #: Hard limit on the number of rounds.  ``None`` selects
    #: :func:`default_round_limit`.
    max_rounds: int | None = None
    #: Number of delivery sub-steps per round (see module docstring).
    max_substeps: int = 2
    #: Whether exceeding ``max_rounds`` raises (True) or returns a partial
    #: result flagged ``completed=False`` (False).
    strict: bool = True
    #: Enforce the one-call-per-round budget of the phone-call model.
    enforce_call_budget: bool = True
    #: Optional stop condition evaluated after every round; receives the
    #: node list and the round index and returns True to stop early.
    stop_condition: Callable[[Sequence[ProtocolNode], int], bool] | None = None

    def __post_init__(self) -> None:
        if self.max_rounds is not None and self.max_rounds <= 0:
            raise ConfigurationError("max_rounds must be positive")
        if self.max_substeps < 1:
            raise ConfigurationError("max_substeps must be at least 1")


@dataclass
class EngineResult:
    """Outcome of an engine run."""

    rounds: int
    completed: bool
    metrics: MetricsCollector
    nodes: Sequence[ProtocolNode]
    stopped_by_condition: bool = False
    carried_over_messages: int = 0
    #: Final liveness mask after mid-run churn (``None`` when the network
    #: has no churn oracle; the initial mask is then still current).
    final_alive: np.ndarray | None = None


class SynchronousEngine:
    """Drives a protocol to completion over a network."""

    def __init__(
        self,
        network: Network,
        nodes: Sequence[ProtocolNode],
        rng: np.random.Generator,
        metrics: MetricsCollector | None = None,
        config: EngineConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if len(nodes) != network.n:
            raise ConfigurationError(
                f"expected {network.n} protocol nodes, got {len(nodes)}"
            )
        for index, node in enumerate(nodes):
            if node.node_id != index:
                raise ConfigurationError(
                    f"node at position {index} has node_id {node.node_id}; "
                    "nodes must be supplied in id order"
                )
        self.network = network
        self.nodes = list(nodes)
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsCollector(n=network.n)
        self.config = config or EngineConfig()
        # An empty Tracer is falsy (len() == 0), so test against None rather
        # than truthiness.
        self.tracer = tracer if tracer is not None else NullTracer()
        self._pending: list[Message] = []

    # ------------------------------------------------------------------ #
    def _context(self, round_index: int) -> RoundContext:
        return RoundContext(
            round_index=round_index,
            n=self.network.n,
            rng=self.rng,
            alive=self.network.alive,
        )

    def _collect_sends(
        self,
        sender: ProtocolNode,
        sends: Sequence[Send],
        round_index: int,
        budget: Mapping[int, int] | None,
    ) -> list[Message]:
        messages: list[Message] = []
        if not sends:
            return messages
        if budget is not None and self.config.enforce_call_budget:
            used = budget.get(sender.node_id, 0) + len(sends)
            if used > sender.calls_per_round:
                raise ProtocolViolation(
                    f"node {sender.node_id} initiated {used} calls in round "
                    f"{round_index}, but its budget is {sender.calls_per_round}"
                )
            budget[sender.node_id] = used  # type: ignore[index]
        for send in sends:
            if not isinstance(send, Send):
                raise ProtocolViolation(
                    f"node {sender.node_id} returned {type(send).__name__}; "
                    "protocol callbacks must return Send objects"
                )
            messages.append(send.to_message(sender.node_id).stamped(round_index))
        return messages

    def _deliver(
        self, messages: list[Message], ctx: RoundContext, substep: int
    ) -> list[Message]:
        """Deliver a batch and gather the replies it provokes."""
        arrived = self.network.deliver(messages, self.metrics)
        if self.tracer.enabled:
            arrived_set = {id(m) for m in arrived}
            for message in messages:
                self.tracer.record(
                    TraceEvent(
                        round_index=ctx.round_index,
                        substep=substep,
                        message=message,
                        delivered=id(message) in arrived_set,
                    )
                )
        by_recipient: dict[int, list[Message]] = {}
        for message in arrived:
            by_recipient.setdefault(message.recipient, []).append(message)
        replies: list[Message] = []
        for recipient, batch in by_recipient.items():
            node = self.nodes[recipient]
            sends = node.on_messages(ctx, batch)
            # Replies are not charged against the call budget: answering an
            # established call is the second half of the same call.
            replies.extend(self._collect_sends(node, sends, ctx.round_index, None))
        return replies

    # ------------------------------------------------------------------ #
    def run(self) -> EngineResult:
        max_rounds = (
            self.config.max_rounds
            if self.config.max_rounds is not None
            else default_round_limit(self.network.n)
        )
        churn = self.network.has_churn
        alive_ids = self.network.alive_ids
        round_index = 0
        completed = False
        stopped = False

        while round_index < max_rounds:
            if churn:
                # Churn strikes at the top of the round: the dead stop
                # sending/receiving immediately (carried-over deliveries
                # below already see the updated mask), joiners participate
                # from this round's begin_round on.
                died, joined = self.network.apply_churn(round_index)
                for node_id in died:
                    self.nodes[node_id].on_deactivated(round_index)
                for node_id in joined:
                    self.nodes[node_id].on_activated(round_index)
                if died.size or joined.size:
                    alive_ids = self.network.alive_ids
            ctx = self._context(round_index)
            self.metrics.record_round()
            call_budget: dict[int, int] = {}

            # Deliver messages carried over from the previous round first so
            # protocols observe them before deciding this round's call.
            outgoing: list[Message] = []
            if self._pending:
                carried, self._pending = self._pending, []
                outgoing.extend(self._deliver(carried, ctx, substep=0))

            for node_id in alive_ids:
                node = self.nodes[node_id]
                sends = node.begin_round(ctx)
                outgoing.extend(
                    self._collect_sends(node, sends, round_index, call_budget)
                )

            substep = 1
            while outgoing and substep < self.config.max_substeps:
                outgoing = self._deliver(outgoing, ctx, substep)
                substep += 1
            # Whatever is left spills into the next round.
            self._pending = outgoing

            round_index += 1

            if self.config.stop_condition is not None and self.config.stop_condition(
                self.nodes, round_index
            ):
                stopped = True
                completed = True
                break

            if all(self.nodes[i].is_complete() for i in alive_ids) and not self._pending:
                completed = True
                break

        if not completed and self.config.strict:
            raise RoundLimitExceeded(max_rounds)

        return EngineResult(
            rounds=round_index,
            completed=completed,
            metrics=self.metrics,
            nodes=self.nodes,
            stopped_by_condition=stopped,
            carried_over_messages=len(self._pending),
            final_alive=self.network.alive.copy() if churn else None,
        )
