"""Randomized rumor spreading (Karp, Schindelhauer, Shenker & Vocking, FOCS 2000).

Rumor spreading is the problem the paper contrasts aggregate computation
against in its lower-bound discussion: spreading a *single* rumor from one
node to all nodes is achievable with ``O(n log log n)`` messages (and
``O(log n)`` rounds) by an address-oblivious algorithm, whereas Theorem 15
shows aggregates need ``Omega(n log n)`` messages in that model.  Measuring
both sides of that gap is experiment E10.

Two protocols are provided:

* :func:`push_rumor` -- the plain push protocol (every informed node pushes
  the rumor to a random node each round); ``Theta(n log n)`` messages.
* :func:`push_pull_rumor` -- the push-pull protocol with the median-counter
  inspired termination rule of Karp et al. (simplified: nodes stop
  ``O(log log n)`` rounds after first hearing the rumor, once the rumor has
  saturated).  ``Theta(n log log n)`` messages whp, which is what makes the
  contrast with Theorem 15 meaningful.

Both take a ``backend`` argument.  Round semantics are synchronous in both
backends: a pull succeeds when the contacted partner was informed at the
*start* of the round (pushes delivered within the same round inform the
partner only for subsequent rounds).  The rumor protocols ignore initial
crashes (the failure model's loss probability applies to every message).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on

__all__ = ["RumorResult", "PushRumorNode", "PushPullRumorNode", "push_rumor", "push_pull_rumor"]


@dataclass
class RumorResult:
    """Outcome of a rumor-spreading run."""

    informed_fraction: float
    rounds: int
    messages: int
    metrics: MetricsCollector
    informed: np.ndarray

    @property
    def everyone_informed(self) -> bool:
        return bool(self.informed.all())


# --------------------------------------------------------------------------- #
# plain push
# --------------------------------------------------------------------------- #
def push_rumor(
    n: int,
    source: int = 0,
    rng: np.random.Generator | int | None = None,
    rounds: int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    backend: str = "vectorized",
) -> RumorResult:
    """Plain push protocol: informed nodes push every round until the budget ends."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("push-rumor")
    total_rounds = rounds if rounds is not None else int(math.ceil(2 * math.log2(max(2, n)) + 8))
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _push_rumor_vectorized(
            kernel, n, source, rng, total_rounds, oracle, metrics
        ),
        engine=lambda kernel: _push_rumor_engine(
            kernel, n, source, rng, total_rounds, failure_model, oracle, metrics
        ),
    )


def _push_rumor_vectorized(
    kernel: VectorizedKernel,
    n: int,
    source: int,
    rng: np.random.Generator,
    total_rounds: int,
    oracle: LossOracle,
    metrics: MetricsCollector,
) -> RumorResult:
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    executed = 0
    for r in range(total_rounds):
        metrics.record_round()
        executed += 1
        senders = np.flatnonzero(informed)
        targets = kernel.sample_uniform(rng, n, senders.size)
        delivered = kernel.deliver(
            metrics, oracle, MessageKind.PUSH, targets, senders=senders, round_index=r
        )
        informed[targets[delivered]] = True
        if informed.all():
            break
    return RumorResult(
        informed_fraction=float(informed.mean()),
        rounds=executed,
        messages=metrics.total_messages,
        metrics=metrics,
        informed=informed,
    )


class PushRumorNode(ProtocolNode):
    """Per-node plain-push state machine."""

    def __init__(self, node_id: int, informed: bool, rounds: int) -> None:
        super().__init__(node_id)
        self.informed = bool(informed)
        self.rounds = int(rounds)

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if not self.informed or ctx.round_index >= self.rounds:
            return []
        return [Send(recipient=ctx.random_node(), kind=MessageKind.PUSH, payload={}, payload_words=1)]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.PUSH.value:
                self.informed = True
        return []

    def is_complete(self) -> bool:
        # Completion is a global property (everyone informed); the engine run
        # is bounded by its round budget and the all-informed stop condition.
        return False


def _push_rumor_engine(
    kernel: EngineKernel,
    n: int,
    source: int,
    rng: np.random.Generator,
    total_rounds: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    metrics: MetricsCollector,
) -> RumorResult:
    nodes = [PushRumorNode(i, i == source, total_rounds) for i in range(n)]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=np.ones(n, dtype=bool),
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=total_rounds,
        strict=False,
        stop_condition=lambda current, _round: all(node.informed for node in current),
    )
    informed = np.array([node.informed for node in nodes], dtype=bool)
    return RumorResult(
        informed_fraction=float(informed.mean()),
        rounds=outcome.rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        informed=informed,
    )


# --------------------------------------------------------------------------- #
# push-pull with cooldown termination
# --------------------------------------------------------------------------- #
def push_pull_rumor(
    n: int,
    source: int = 0,
    rng: np.random.Generator | int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    cooldown: int | None = None,
    max_rounds: int | None = None,
    backend: str = "vectorized",
) -> RumorResult:
    """Push-pull rumor spreading with an O(log log n) per-node cooldown.

    Every round, every node contacts a random partner: informed nodes push
    the rumor, uninformed nodes pull it (a pull transmits the rumor back only
    when the partner is informed; the request itself is also a message).  A
    node stops initiating contacts ``cooldown = Theta(log log n)`` rounds
    after it first became informed and once the exponential-growth phase is
    over; this reproduces the ``O(n log log n)`` message bound of Karp et al.
    without implementing the full median-counter machinery (the termination
    rule, not the growth analysis, is what the counter provides).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("push-pull-rumor")

    log_n = max(1.0, math.log2(max(2, n)))
    cooldown = cooldown if cooldown is not None else max(2, int(math.ceil(math.log2(log_n))) + 2)
    max_rounds = max_rounds if max_rounds is not None else int(math.ceil(3 * log_n + 3 * cooldown + 8))
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _push_pull_vectorized(
            kernel, n, source, rng, cooldown, max_rounds, oracle, metrics
        ),
        engine=lambda kernel: _push_pull_engine(
            kernel, n, source, rng, cooldown, max_rounds, failure_model, oracle, metrics
        ),
    )


def _push_pull_vectorized(
    kernel: VectorizedKernel,
    n: int,
    source: int,
    rng: np.random.Generator,
    cooldown: int,
    max_rounds: int,
    oracle: LossOracle,
    metrics: MetricsCollector,
) -> RumorResult:
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_round = np.full(n, -1, dtype=np.int64)
    informed_round[source] = 0

    executed = 0
    for t in range(1, max_rounds + 1):
        metrics.record_round()
        executed += 1
        # A node is active while it is uninformed (it keeps pulling) or for
        # `cooldown` rounds after becoming informed (it keeps pushing); the
        # round's contacts are resolved against the start-of-round state.
        informed_start = informed.copy()
        active_push = informed_start & (t - informed_round <= cooldown)
        active_pull = ~informed_start
        actors = np.flatnonzero(active_push | active_pull)
        targets = kernel.sample_uniform(rng, n, actors.size)
        pushing = active_push[actors]
        pushers, push_targets = actors[pushing], targets[pushing]
        pullers, pull_targets = actors[~pushing], targets[~pushing]

        # Uninformed nodes stop pulling only when everyone is informed, so
        # the pull side is what guarantees completion; its cost is bounded
        # because the uninformed population shrinks doubly exponentially in
        # the shrinking phase (Karp et al., Lemma 2).
        if pushers.size:
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.PUSH, push_targets,
                senders=pushers, round_index=t - 1,
            )
            newly = push_targets[delivered]
            fresh = newly[~informed[newly]]
            informed[fresh] = True
            informed_round[fresh] = t
        if pullers.size:
            request_ok = kernel.deliver(
                metrics, oracle, MessageKind.PULL, pull_targets,
                senders=pullers, round_index=t - 1,
            )
            partner_informed = request_ok & informed_start[pull_targets]
            # Reply only happens when the partner held the rumor at the start
            # of the round.
            reply_ok = kernel.deliver(
                metrics, oracle, MessageKind.DATA, pullers[partner_informed],
                senders=pull_targets[partner_informed], round_index=t - 1,
            )
            lucky = pullers[partner_informed][reply_ok]
            fresh = lucky[~informed[lucky]]
            informed[fresh] = True
            informed_round[fresh] = t
        if informed.all():
            break

    return RumorResult(
        informed_fraction=float(informed.mean()),
        rounds=executed,
        messages=metrics.total_messages,
        metrics=metrics,
        informed=informed,
    )


class PushPullRumorNode(ProtocolNode):
    """Per-node push-pull state machine with the cooldown termination rule."""

    def __init__(self, node_id: int, informed: bool, cooldown: int) -> None:
        super().__init__(node_id)
        self.informed = bool(informed)
        self.informed_t = 0 if informed else -1
        self.cooldown = int(cooldown)
        self.snapshot_informed = self.informed

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self.snapshot_informed = self.informed
        t = ctx.round_index + 1
        if self.informed:
            if t - self.informed_t <= self.cooldown:
                return [Send(recipient=ctx.random_node(), kind=MessageKind.PUSH, payload={}, payload_words=1)]
            return []
        return [
            Send(
                recipient=ctx.random_node(),
                kind=MessageKind.PULL,
                payload={"origin": self.node_id},
                payload_words=1,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        t = ctx.round_index + 1
        replies: list[Send] = []
        for message in messages:
            if message.kind == MessageKind.PULL.value:
                if self.snapshot_informed:
                    replies.append(
                        Send(
                            recipient=int(message.get("origin", message.sender)),
                            kind=MessageKind.DATA,
                            payload={},
                            payload_words=1,
                        )
                    )
            elif message.kind in (MessageKind.PUSH.value, MessageKind.DATA.value):
                if not self.informed:
                    self.informed = True
                    self.informed_t = t
        return replies

    def is_complete(self) -> bool:
        # Global termination (everyone informed) is enforced by the engine
        # stop condition; a node past its cooldown is individually done.
        return self.informed and self.informed_t >= 0


def _push_pull_engine(
    kernel: EngineKernel,
    n: int,
    source: int,
    rng: np.random.Generator,
    cooldown: int,
    max_rounds: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    metrics: MetricsCollector,
) -> RumorResult:
    nodes = [PushPullRumorNode(i, i == source, cooldown) for i in range(n)]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=np.ones(n, dtype=bool),
        loss_oracle=oracle,
        max_substeps=3,
        max_rounds=max_rounds,
        strict=False,
        stop_condition=lambda current, _round: all(node.informed for node in current),
    )
    informed = np.array([node.informed for node in nodes], dtype=bool)
    return RumorResult(
        informed_fraction=float(informed.mean()),
        rounds=outcome.rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        informed=informed,
    )
