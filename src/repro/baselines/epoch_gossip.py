"""Epoch-restarted push-pull averaging for dynamic networks.

DRR-gossip and the Kempe-style baselines assume the membership that exists
when the run starts.  Under mid-run churn their invariants erode: push-sum
mass leaks out with every crash, and a node that joins late has no way to
re-enter a tree whose construction already finished.  The classic repair
(Jelasity, Montresor & Babaoglu, ACM TOCS 2005) is to *restart* the
aggregation in epochs: every ``epoch_rounds`` rounds all live nodes re-seed
``(s, w) = (value, 1)`` and converge again from scratch, so the estimate
tracks the mean of the *current* membership instead of the founding one.
Nodes that join mid-epoch re-seed immediately and simply participate in the
remainder of the epoch.

Within an epoch the protocol is symmetric push-pull averaging: every live
node halves its ``(s, w)`` pair and pushes one half to a uniform partner
(or, on a sparse topology, a uniform live neighbour); the receiver answers
its ``j``-th arrived push with ``S / 2^(j+1)`` of its own post-halving mass
``S`` and keeps ``S / 2^k``, which conserves mass exactly
(``S/2 + S/4 + ... + S/2^k + S/2^k = S``).  Push-pull halves the variance
roughly twice as fast as push-only and is the variant the epoch-restart
literature analyses.

On a sparse topology the overlay is *locally repaired* once per epoch: at
every epoch boundary each node drops neighbours that are currently dead, so
a long-lived run keeps routing around accumulated crashes without global
re-wiring mid-epoch.

Both substrate backends implement the identical schedule.  The vectorized
loop runs all epochs in one pass with global round indices; the engine
backend runs one :meth:`EngineKernel.run` *per epoch* with
``loss_base_round = churn_base_round = epoch * epoch_rounds`` so the loss
and churn oracles hash the very same transmission/fate identities, which is
what keeps the two backends bit-identical under failure injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..simulator.failures import ChurnOracle, FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, occurrence_index, run_on
from ..topology.base import Topology

__all__ = [
    "EpochGossipResult",
    "EpochGossipNode",
    "epoch_gossip_ave",
    "default_epoch_rounds",
]


def default_epoch_rounds(n: int) -> int:
    """Rounds per epoch: enough for push-pull to reach ``~1/n`` error."""
    return int(math.ceil(2.0 * math.log2(max(2, n)) + 8.0))


@dataclass
class EpochGossipResult:
    """Outcome of an epoch-restarted averaging run."""

    #: per-node estimate after the final epoch (NaN for dead nodes)
    estimates: np.ndarray
    #: mean of the local values over the *final* survivors
    exact: float
    rounds: int
    messages: int
    metrics: MetricsCollector
    epochs: int
    epoch_rounds: int
    #: max relative error over live nodes vs the survivor mean, one entry
    #: per epoch boundary -- the degradation curve the churn experiments plot
    epoch_errors: list[float] = field(default_factory=list)
    #: live-node count at each epoch boundary
    epoch_survivors: list[int] = field(default_factory=list)

    @property
    def max_relative_error(self) -> float:
        if self.exact == 0.0:
            return float(np.nanmax(np.abs(self.estimates)))
        return float(np.nanmax(np.abs(self.estimates - self.exact) / abs(self.exact)))


def _epoch_stats(
    s: np.ndarray, w: np.ndarray, values: np.ndarray, alive: np.ndarray
) -> tuple[int, float, float, np.ndarray]:
    """Survivor count, survivor mean, max live relative error, estimates.

    Shared by both backends (the engine calls it on arrays gathered from its
    nodes) so the recorded degradation curves are bit-identical.
    """
    survivors = int(np.count_nonzero(alive))
    exact_now = float(values[alive].mean()) if survivors else float("nan")
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(w > 0, s / np.where(w > 0, w, 1.0), np.nan)
    live = est[alive]
    if not live.size:
        err = float("nan")
    elif exact_now == 0.0:
        err = float(np.nanmax(np.abs(live)))
    else:
        err = float(np.nanmax(np.abs(live - exact_now) / abs(exact_now)))
    return survivors, exact_now, err, est


def _repaired_csr(
    topology: Topology, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local repair: drop edges whose *target* endpoint is currently dead.

    Filtering on the target only (not the source) means a node revived
    mid-run finds its epoch-start neighbour row intact and can resume
    sending immediately; rows of dead nodes are simply never consulted.
    """
    indptr = np.asarray(topology.indptr)
    indices = np.asarray(topology.indices)
    n = indptr.size - 1
    keep = alive[indices]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(rows[keep], minlength=n)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, indices[keep]


def epoch_gossip_ave(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    epochs: int = 3,
    epoch_rounds: int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    topology: Topology | None = None,
    backend: str = "vectorized",
) -> EpochGossipResult:
    """Run ``epochs`` restarted push-pull averaging epochs.

    ``topology=None`` runs on the complete graph of the random phone-call
    model; otherwise partners are drawn from the per-epoch locally repaired
    adjacency of ``topology``.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("values must be non-empty")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if topology is not None and topology.n != n:
        raise ValueError(f"topology has {topology.n} nodes, values has {n}")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("epoch-gossip-ave")

    alive = ~failure_model.sample_crashes(n, rng)
    oracle = LossOracle.for_run(failure_model, rng)
    churn = ChurnOracle.for_run(failure_model, rng)
    rounds_per_epoch = epoch_rounds if epoch_rounds is not None else default_epoch_rounds(n)
    if rounds_per_epoch < 1:
        raise ValueError("epoch_rounds must be >= 1")

    return run_on(
        backend,
        vectorized=lambda kernel: _epoch_gossip_vectorized(
            kernel, values, n, rng, epochs, rounds_per_epoch,
            oracle, alive, metrics, churn, topology,
        ),
        engine=lambda kernel: _epoch_gossip_engine(
            kernel, values, n, rng, epochs, rounds_per_epoch,
            failure_model, oracle, alive, metrics, churn, topology,
        ),
    )


def _epoch_gossip_vectorized(
    kernel: VectorizedKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    epochs: int,
    epoch_rounds: int,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    churn: ChurnOracle | None,
    topology: Topology | None,
) -> EpochGossipResult:
    s = np.zeros(n, dtype=float)
    w = np.zeros(n, dtype=float)
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    dead_targets = churn is not None
    epoch_errors: list[float] = []
    epoch_survivors: list[int] = []

    for epoch in range(epochs):
        base = epoch * epoch_rounds
        # Epoch restart: every live node re-seeds from its local value.
        s[alive] = values[alive]
        w[alive] = 1.0
        if topology is not None:
            indptr, indices = _repaired_csr(topology, alive)
            deg = np.diff(indptr)
        for k in range(epoch_rounds):
            r = base + k
            if churn is not None:
                _, joined = churn.step(r, alive)
                if joined.size:
                    # A joiner re-seeds immediately and plays out the epoch.
                    s[joined] = values[joined]
                    w[joined] = 1.0
            metrics.record_round()
            if topology is not None:
                senders = np.flatnonzero(alive & (deg > 0))
                pick = rng.random(senders.size)
                targets = indices[indptr[senders] + (pick * deg[senders]).astype(np.int64)]
            else:
                senders = np.flatnonzero(alive)
                targets = kernel.sample_uniform(rng, n, senders.size)
            push_s = s[senders] / 2.0
            push_w = w[senders] / 2.0
            s[senders] -= push_s
            w[senders] -= push_w
            ok = kernel.deliver(
                metrics, oracle, MessageKind.PUSH, targets,
                senders=senders, round_index=r, alive=alive_arg,
                payload_words=2, dead_targets=dead_targets,
            )
            arrived_from = senders[ok]
            arrived_to = targets[ok]
            # Push-pull split: receiver t answers its j-th arrived push with
            # S/2^(j+1) of its post-halving mass S and keeps S/2^k.
            occ = occurrence_index(arrived_to)
            reply_s = s[arrived_to] / (2.0 ** (occ + 1))
            reply_w = w[arrived_to] / (2.0 ** (occ + 1))
            arrivals = np.bincount(arrived_to, minlength=n)
            scale = np.power(0.5, arrivals)
            s *= scale
            w *= scale
            np.add.at(s, arrived_to, push_s[ok])
            np.add.at(w, arrived_to, push_w[ok])
            # The pull reply travels back over the same round's link.
            reply_ok = kernel.deliver(
                metrics, oracle, MessageKind.PULL, arrived_from,
                senders=arrived_to, round_index=r, alive=alive_arg,
                payload_words=2, dead_targets=dead_targets,
            )
            np.add.at(s, arrived_from[reply_ok], reply_s[reply_ok])
            np.add.at(w, arrived_from[reply_ok], reply_w[reply_ok])
        survivors, _exact_now, err, _est = _epoch_stats(s, w, values, alive)
        epoch_errors.append(err)
        epoch_survivors.append(survivors)

    survivors, exact, _err, est = _epoch_stats(s, w, values, alive)
    estimates = est.copy()
    estimates[~alive] = np.nan
    return EpochGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=epochs * epoch_rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        epochs=epochs,
        epoch_rounds=epoch_rounds,
        epoch_errors=epoch_errors,
        epoch_survivors=epoch_survivors,
    )


class EpochGossipNode(ProtocolNode):
    """Per-node push-pull averaging state machine for one epoch.

    The driver re-creates the node population at every epoch boundary (the
    epoch restart), so a node's state never outlives its epoch; a node
    revived by churn re-seeds in :meth:`on_activated`.
    """

    def __init__(
        self,
        node_id: int,
        value: float,
        rounds: int,
        neighbors: np.ndarray | None = None,
    ) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.s = float(value)
        self.w = 1.0
        self.rounds = rounds
        #: None = complete graph (uniform partner); else epoch-repaired row
        self.neighbors = neighbors

    def on_activated(self, round_index: int) -> None:
        self.s = self.value
        self.w = 1.0

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if ctx.round_index >= self.rounds:
            return []
        if self.neighbors is None:
            target = ctx.random_node()
        else:
            if len(self.neighbors) == 0:
                return []
            pick = ctx.rng.random()
            target = int(self.neighbors[int(pick * len(self.neighbors))])
        push_s, push_w = self.s / 2.0, self.w / 2.0
        self.s -= push_s
        self.w -= push_w
        return [
            Send(
                recipient=target,
                kind=MessageKind.PUSH,
                payload={"s": push_s, "w": push_w},
                payload_words=2,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        pushes = [m for m in messages if m.kind == MessageKind.PUSH.value]
        replies: list[Send] = []
        if pushes:
            base_s, base_w = self.s, self.w
            arrivals = len(pushes)
            for j, message in enumerate(pushes):
                share = 2.0 ** (j + 1)
                replies.append(
                    Send(
                        recipient=message.sender,
                        kind=MessageKind.PULL,
                        payload={"s": base_s / share, "w": base_w / share},
                        payload_words=2,
                    )
                )
            self.s = base_s / 2.0 ** arrivals
            self.w = base_w / 2.0 ** arrivals
            for message in pushes:
                self.s += float(message.get("s"))
                self.w += float(message.get("w"))
        for message in messages:
            if message.kind == MessageKind.PULL.value:
                self.s += float(message.get("s"))
                self.w += float(message.get("w"))
        return replies

    def is_complete(self) -> bool:
        # Rounds are driven by the per-epoch stop condition, not node state.
        return False


def _epoch_gossip_engine(
    kernel: EngineKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    epochs: int,
    epoch_rounds: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    churn: ChurnOracle | None,
    topology: Topology | None,
) -> EpochGossipResult:
    alive = alive.copy()
    epoch_errors: list[float] = []
    epoch_survivors: list[int] = []
    s = np.zeros(n, dtype=float)
    w = np.zeros(n, dtype=float)

    for epoch in range(epochs):
        base = epoch * epoch_rounds
        if topology is not None:
            indptr, indices = _repaired_csr(topology, alive)
            nodes = [
                EpochGossipNode(
                    i, float(values[i]), epoch_rounds,
                    neighbors=indices[indptr[i]:indptr[i + 1]],
                )
                for i in range(n)
            ]
        else:
            nodes = [
                EpochGossipNode(i, float(values[i]), epoch_rounds)
                for i in range(n)
            ]
        # One engine execution per epoch with shifted oracle bases: the loss
        # and churn fates hash the same global round identities the
        # single-pass vectorized loop uses, keeping the backends
        # bit-identical under failure injection.
        outcome = kernel.run(
            nodes,
            rng=rng,
            metrics=metrics,
            failure_model=failure_model,
            alive=alive,
            loss_oracle=oracle,
            loss_base_round=base,
            churn_oracle=churn,
            churn_base_round=base,
            max_substeps=3,
            max_rounds=epoch_rounds + 4,
            stop_condition=lambda current_nodes, round_index: round_index >= epoch_rounds,
        )
        if outcome.final_alive is not None:
            alive[:] = outcome.final_alive
        for i in range(n):
            s[i] = nodes[i].s
            w[i] = nodes[i].w
        survivors, _exact_now, err, _est = _epoch_stats(s, w, values, alive)
        epoch_errors.append(err)
        epoch_survivors.append(survivors)

    survivors, exact, _err, est = _epoch_stats(s, w, values, alive)
    estimates = est.copy()
    estimates[~alive] = np.nan
    return EpochGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=epochs * epoch_rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        epochs=epochs,
        epoch_rounds=epoch_rounds,
        epoch_errors=epoch_errors,
        epoch_survivors=epoch_survivors,
    )
