"""Phase III -- Gossip-max and its sampling procedure (Algorithm 4).

After Phase II every root holds a local aggregate and every node (whp) knows
its root's address.  Gossip-max makes all roots agree on the maximum of the
root values:

* **Gossip procedure** -- for ``O(log n)`` rounds every root picks a node
  uniformly at random from the *whole* network and pushes its current value;
  a non-root that receives the push forwards it to its own root (this is the
  non-address-oblivious step: the forward uses the root address learned in
  Phase II).  Theorem 5: after the gossip procedure a constant fraction of
  the roots -- weighted towards the roots of large trees -- hold the true
  maximum whp.
* **Sampling procedure** -- for ``Theta(log n)`` further rounds every root
  samples a random node, the sample is forwarded to that node's root, and
  the sampled root answers with its current value directly to the inquirer.
  Theorem 6: afterwards *all* roots know the maximum whp.

Backends (the ``backend`` argument):

* ``"vectorized"`` operates at message granularity (every push, forward,
  inquiry, and reply is counted and individually subject to loss) but is
  batched over the roots within a round, through the substrate's shared
  two-hop relay primitive.
* ``"engine"`` runs :class:`GossipMaxRootNode` machines on the roots and
  :class:`RootForwarderNode` machines on everyone else; pushes, forwards,
  inquiries, and replies are individual messages on the synchronous engine.

Both backends draw the per-round push targets in root-id order from the
shared generator, so on a reliable network they agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simulator.failures import ChurnOracle, FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, RelayTable, VectorizedKernel, run_on

__all__ = [
    "GossipMaxResult",
    "GossipMaxRootNode",
    "RootForwarderNode",
    "default_gossip_rounds",
    "default_sampling_rounds",
    "run_gossip_max",
]


def default_gossip_rounds(n: int, loss_probability: float = 0.0) -> int:
    """Round budget for the gossip procedure.

    Theorem 5 uses ``8 log n / (1 - rho) + log_beta n`` rounds; a budget of
    ``2 log2 n`` plus slack, inflated by the two-hop delivery probability,
    reproduces the whp behaviour at the network sizes the experiments use
    while keeping the constant factors closer to practice.  The paper-exact
    constant is available through ``repro.analysis.theory``.
    """
    rho = 1.0 - (1.0 - loss_probability) ** 2
    base = 1.5 * math.log2(max(2, n)) + 5.0
    return int(math.ceil(base / max(1e-9, 1.0 - rho)))


def default_sampling_rounds(n: int, loss_probability: float = 0.0) -> int:
    """Round budget for the sampling procedure (``(1/c) log n`` in the paper)."""
    rho = 1.0 - (1.0 - loss_probability) ** 2
    base = 0.75 * math.log2(max(2, n)) + 4.0
    return int(math.ceil(base / max(1e-9, 1.0 - rho)))


@dataclass
class GossipMaxResult:
    """Outcome of Gossip-max over the roots.

    Attributes
    ----------
    estimates:
        Mapping root id -> the root's final estimate of the maximum.
    after_gossip_fraction:
        Fraction of roots that already held the true maximum of the *input*
        root values when the gossip procedure ended (the Theorem 5 quantity).
    gossip_rounds / sampling_rounds:
        Rounds used by each sub-procedure.
    metrics:
        Message accounting (phase ``"gossip-max"`` unless overridden).
    """

    estimates: dict[int, float]
    after_gossip_fraction: float
    gossip_rounds: int
    sampling_rounds: int
    metrics: MetricsCollector

    def consensus_value(self) -> float:
        """The value held by the majority of roots (ties broken by max)."""
        values = list(self.estimates.values())
        uniques, counts = np.unique(np.array(values), return_counts=True)
        best = counts.max()
        return float(max(uniques[counts == best]))

    def all_roots_agree(self) -> bool:
        values = set(self.estimates.values())
        return len(values) == 1


def check_root_of(root_of: np.ndarray, n: int) -> None:
    """Reject a Phase II forwarding table that a :class:`RelayTable` cannot encode.

    It needs one entry per node, each a node id or ``-1`` (root unknown).
    """
    if root_of.shape != (n,):
        raise ValueError(f"root_of must have shape ({n},)")
    if n and (root_of.min() < -1 or root_of.max() >= n):
        raise ValueError(f"root_of entries must be node ids below {n}, or -1 for unknown")


def run_gossip_max(
    roots: np.ndarray,
    root_values: np.ndarray,
    root_of: np.ndarray,
    n: int,
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    gossip_rounds: int | None = None,
    sampling_rounds: int | None = None,
    phase_name: str = "gossip-max",
    alive: np.ndarray | None = None,
    churn: ChurnOracle | None = None,
    churn_base_round: int = 0,
    backend: str = "vectorized",
) -> GossipMaxResult:
    """Run Gossip-max (Algorithm 4) over the forest's roots.

    Parameters
    ----------
    roots:
        Array of root node ids (the set V-tilde).
    root_values:
        Initial value of each root, aligned with ``roots``.
    root_of:
        For every node in the network, the id of the root it forwards to, or
        ``-1`` when the node does not know its root (its broadcast message
        was lost) -- pushes landing on such nodes are dropped.
    n:
        Total number of nodes (pushes are addressed uniformly over all of V).
    gossip_rounds / sampling_rounds:
        Round budgets; ``None`` selects the defaults above.
    alive:
        Liveness mask over all n nodes; dead targets swallow messages.  Under
        churn the array is evolved **in place** so multi-procedure pipelines
        observe the deaths of earlier procedures.
    churn:
        Mid-run churn oracle (``None`` auto-derives one from
        ``failure_model`` when it carries churn).  Root-relay procedures are
        crash-only: a revived root would have missed rounds of mass flow, so
        join events are rejected here.  ``churn_base_round`` offsets this
        procedure's rounds in the oracle's identity space (the pipeline runs
        several procedures under one churn clock).
    backend:
        Substrate backend: ``"vectorized"`` (default) or ``"engine"``.
    """
    roots = np.asarray(roots, dtype=np.int64)
    root_values = np.asarray(root_values, dtype=float)
    root_of = np.asarray(root_of, dtype=np.int64)
    if roots.size == 0:
        raise ValueError("gossip-max needs at least one root")
    if root_values.shape != roots.shape:
        raise ValueError("root_values must align with roots")
    check_root_of(root_of, n)

    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase(phase_name)
    if alive is None:
        alive = np.ones(n, dtype=bool)
    oracle = LossOracle.for_run(failure_model, rng)
    if churn is None:
        churn = ChurnOracle.for_run(failure_model, rng)
    if churn is not None and churn.has_joins:
        raise ValueError(
            "gossip-max is crash-only under churn: a revived root would have "
            "missed rounds of push flow (set join_rate=0 and use no join "
            "schedule events, or run the epoch-gossip-ave protocol instead)"
        )

    delta = failure_model.loss_probability
    g_rounds = gossip_rounds if gossip_rounds is not None else default_gossip_rounds(n, delta)
    s_rounds = sampling_rounds if sampling_rounds is not None else default_sampling_rounds(n, delta)

    return run_on(
        backend,
        vectorized=lambda kernel: _gossip_max_vectorized(
            kernel, roots, root_values, root_of, n, oracle, rng, metrics,
            g_rounds, s_rounds, alive, churn, churn_base_round,
        ),
        engine=lambda kernel: _gossip_max_engine(
            kernel, roots, root_values, root_of, n, failure_model, oracle, rng, metrics,
            g_rounds, s_rounds, alive, churn, churn_base_round,
        ),
    )


# --------------------------------------------------------------------------- #
# vectorized (columnar) backend
# --------------------------------------------------------------------------- #
def _gossip_max_vectorized(
    kernel: VectorizedKernel,
    roots: np.ndarray,
    root_values: np.ndarray,
    root_of: np.ndarray,
    n: int,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
    g_rounds: int,
    s_rounds: int,
    alive: np.ndarray,
    churn: ChurnOracle | None,
    churn_base_round: int,
) -> GossipMaxResult:
    table = RelayTable(roots, root_of, n)
    # Under churn the mask changes every round, so the None fast path (and
    # its hash-free reliable delivery) is only taken on static-membership
    # runs; dead-target accounting likewise only exists under churn.
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    dead_targets = churn is not None

    values = root_values.copy()
    true_max = float(values.max())

    # ------------------------------------------------------------------ #
    # gossip procedure
    # ------------------------------------------------------------------ #
    for r in range(g_rounds):
        if churn is not None:
            churn.step(churn_base_round + r, alive)
            send_pos = np.flatnonzero(alive[roots])
        else:
            send_pos = None
        metrics.record_round()
        # Only live roots push; the live subset preserves root order, so the
        # engine (which draws per alive node in id order) consumes the RNG
        # identically.  Dead roots' values freeze.
        senders = roots if send_pos is None else roots[send_pos]
        targets = kernel.sample_uniform(rng, n, senders.size)
        receivers = kernel.relay_to_roots(
            metrics, oracle, targets, senders=senders, round_index=r,
            kind=MessageKind.GOSSIP, table=table,
            alive=alive_arg, dead_targets=dead_targets,
        )
        valid = receivers >= 0
        if valid.any():
            pushed = values[valid] if send_pos is None else values[send_pos[valid]]
            np.maximum.at(values, receivers[valid], pushed)

    after_gossip_fraction = float(np.mean(values >= true_max))

    # ------------------------------------------------------------------ #
    # sampling procedure
    # ------------------------------------------------------------------ #
    for t in range(s_rounds):
        r = g_rounds + t
        if churn is not None:
            churn.step(churn_base_round + r, alive)
            send_pos = np.flatnonzero(alive[roots])
        else:
            send_pos = None
        metrics.record_round()
        senders = roots if send_pos is None else roots[send_pos]
        targets = kernel.sample_uniform(rng, n, senders.size)
        sampled_roots = kernel.relay_to_roots(
            metrics, oracle, targets, senders=senders, round_index=r,
            kind=MessageKind.INQUIRY, table=table,
            alive=alive_arg, dead_targets=dead_targets,
        )
        valid = sampled_roots >= 0
        valid_idx = np.flatnonzero(valid)
        inquirer_pos = valid_idx if send_pos is None else send_pos[valid_idx]
        # The sampled root answers the inquiring root directly (one hop).
        reply_ok = kernel.deliver(
            metrics, oracle, MessageKind.INQUIRY_REPLY,
            roots[inquirer_pos],
            senders=roots[sampled_roots[valid]], round_index=r,
            alive=alive_arg, dead_targets=dead_targets,
        )
        inquirers = inquirer_pos[reply_ok]
        answered_by = sampled_roots[valid][reply_ok]
        if inquirers.size:
            values[inquirers] = np.maximum(values[inquirers], values[answered_by])

    # tolist() materialises Python scalars in one C pass (the per-element
    # int()/float() dictcomp was a visible cost at hundreds of thousands
    # of roots)
    estimates = dict(zip(roots.tolist(), values.tolist()))
    return GossipMaxResult(
        estimates=estimates,
        after_gossip_fraction=after_gossip_fraction,
        gossip_rounds=g_rounds,
        sampling_rounds=s_rounds,
        metrics=metrics,
    )


# --------------------------------------------------------------------------- #
# engine (message-level) backend
# --------------------------------------------------------------------------- #
class RootForwarderNode(ProtocolNode):
    """A non-root node in Phase III: forwards pushes/inquiries to its root.

    The forward re-wraps the original message under the FORWARD kind,
    preserving its payload (and payload width) plus an ``inner`` tag so the
    root can tell a relayed push from a relayed inquiry.  Nodes that never
    learned their root's address in Phase II (``root < 0``) silently drop.
    """

    def __init__(self, node_id: int, root: int) -> None:
        super().__init__(node_id)
        self.root = int(root)

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        if self.root < 0:
            return []
        forwards: list[Send] = []
        for message in messages:
            if message.kind in (MessageKind.GOSSIP.value, MessageKind.INQUIRY.value):
                forwards.append(
                    Send(
                        recipient=self.root,
                        kind=MessageKind.FORWARD,
                        payload={**message.payload, "inner": message.kind},
                        payload_words=message.payload_words,
                        # All of a round's forwards go to the same root; the
                        # send rank disambiguates them for the loss oracle
                        # (the vectorized relay numbers them identically, in
                        # push order).
                        nonce=len(forwards),
                    )
                )
        return forwards

    def is_complete(self) -> bool:
        return True


class GossipMaxRootNode(ProtocolNode):
    """A root in Gossip-max: pushes for ``g`` rounds, then samples for ``s``.

    Replies to inquiries carry the value the root held at the *start* of the
    round (the synchronous-model semantics the vectorized kernel implements:
    all of a round's exchanges are based on the pre-round state).
    """

    def __init__(self, node_id: int, value: float, gossip_rounds: int, sampling_rounds: int) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.gossip_rounds = int(gossip_rounds)
        self.sampling_rounds = int(sampling_rounds)
        self.rounds_done = 0
        self.round_value = float(value)
        self.value_after_gossip: float | None = None

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self.round_value = self.value
        r = ctx.round_index
        if r == self.gossip_rounds and self.value_after_gossip is None:
            self.value_after_gossip = self.value
        if r < self.gossip_rounds:
            self.rounds_done += 1
            return [
                Send(
                    recipient=ctx.random_node(),
                    kind=MessageKind.GOSSIP,
                    payload={"value": self.value},
                    payload_words=1,
                )
            ]
        if r < self.gossip_rounds + self.sampling_rounds:
            self.rounds_done += 1
            return [
                Send(
                    recipient=ctx.random_node(),
                    kind=MessageKind.INQUIRY,
                    payload={"origin": self.node_id},
                    payload_words=1,
                )
            ]
        return []

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        replies: list[Send] = []
        for message in messages:
            inner = message.get("inner", message.kind)
            if inner == MessageKind.GOSSIP.value:
                self.value = max(self.value, float(message.get("value")))
            elif inner == MessageKind.INQUIRY.value:
                replies.append(
                    Send(
                        recipient=int(message.get("origin")),
                        kind=MessageKind.INQUIRY_REPLY,
                        payload={"value": self.round_value},
                        payload_words=1,
                    )
                )
            elif message.kind == MessageKind.INQUIRY_REPLY.value:
                self.value = max(self.value, float(message.get("value")))
        return replies

    def is_complete(self) -> bool:
        return self.rounds_done >= self.gossip_rounds + self.sampling_rounds

    def result(self) -> float:
        return self.value


def _gossip_max_engine(
    kernel: EngineKernel,
    roots: np.ndarray,
    root_values: np.ndarray,
    root_of: np.ndarray,
    n: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
    g_rounds: int,
    s_rounds: int,
    alive: np.ndarray,
    churn: ChurnOracle | None,
    churn_base_round: int,
) -> GossipMaxResult:
    is_root = np.zeros(n, dtype=bool)
    is_root[roots] = True
    by_root = {int(r): float(v) for r, v in zip(roots, root_values)}
    nodes: list[ProtocolNode] = [
        GossipMaxRootNode(i, by_root[i], g_rounds, s_rounds)
        if is_root[i]
        else RootForwarderNode(i, int(root_of[i]))
        for i in range(n)
    ]
    # Four sub-steps: push/inquiry, forward, and (sampling only) the reply
    # all complete within the round they were initiated.  Under crash-only
    # churn the dead are excluded from the completion check, so the live
    # roots still terminate the run exactly at g + s rounds.
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        churn_oracle=churn,
        churn_base_round=churn_base_round,
        max_substeps=4,
        max_rounds=g_rounds + s_rounds + 4,
        # If churn kills *every* root mid-run the survivors are all
        # forwarders (trivially complete) and the engine would stop early;
        # the vectorized loop always runs its full budget, so pin the round
        # count under churn.
        stop_condition=(
            (lambda nodes, r: r >= g_rounds + s_rounds) if churn is not None else None
        ),
    )
    if outcome.final_alive is not None:
        # The network evolves a copy; mirror the deaths back into the
        # caller's mask so both backends leave it in the same state.
        alive[:] = outcome.final_alive

    true_max = float(root_values.max())
    estimates: dict[int, float] = {}
    after_gossip: list[float] = []
    for root in roots:
        node = nodes[int(root)]
        estimates[int(root)] = float(node.value)
        snapshot = node.value_after_gossip if node.value_after_gossip is not None else node.value
        after_gossip.append(float(snapshot))
    after_gossip_fraction = float(np.mean(np.asarray(after_gossip) >= true_max))
    return GossipMaxResult(
        estimates=estimates,
        after_gossip_fraction=after_gossip_fraction,
        gossip_rounds=g_rounds,
        sampling_rounds=s_rounds,
        metrics=metrics,
    )
