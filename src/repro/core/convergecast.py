"""Phase II -- Convergecast and Broadcast (Algorithms 2 and 3).

After Phase I every node knows its parent and (if its connection message
arrived) its parent knows it.  Phase II computes the *local* aggregate of
every tree at its root:

* **Convergecast-max** (Algorithm 2): leaves send their value to their
  parent; intermediate nodes wait for their children, take the max of the
  received values and their own, and forward it; the root ends up with the
  tree's maximum.
* **Convergecast-sum** (Algorithm 3): identical structure, but nodes forward
  a pair ``(sum of values, count of nodes)`` so the root learns the tree's
  local sum and its size -- the size is the weight Gossip-ave needs.
* **Broadcast**: the root pushes a payload (its own address after Phase II,
  the global aggregate after Phase III) down the tree.  A node can call only
  one node per round, so a parent serves its children one per round; this is
  why the paper bounds Phase II time by the tree *size* rather than height.

All three tree passes (the convergecast and both broadcasts) sweep one
:class:`~repro.core.forest.TreeSchedule`, built lazily once per Phase I
result (:attr:`~repro.core.drr.DRRResult.schedule`) and shared by every
backend.  It is aligned with the forest's BFS index
(:class:`~repro.core.forest.TreeIndex`): root-first, layer by layer, each
parent's children one contiguous run in ascending id.  It holds

* each node's known-child and liveness flags;
* each known child's sibling rank, its 1-based slot in its parent's
  ascending-id service order, counted along its run;
* the convergecast *send schedule* (below), filled bottom-up over the
  layers.

The columnar kernels keep their state in index order, walk each layer as a
contiguous slice whose parents sit, in order, in the layer above, and map
back to node ids once at the end.  Every delivery still names node ids, and
loss fates are keyed by message identity, so the order of a batch changes
no fate.

:func:`run_convergecast` and :func:`run_broadcast` are the entry points; the
``backend`` argument selects the substrate kernel.  The columnar kernels
deliver one schedule layer per batch (all of a layer's upward or downward
transmissions at once); the engine kernel runs the
:class:`ConvergecastNode` / :class:`BroadcastNode` state machines at message
granularity, timed by the same send schedule and folding each node's
children in the same ascending-id order, so both produce bit-identical
aggregates, rounds, and message counts for the same seed.

Semantics under failures (both backends):

* A parent only waits for, and only incorporates, the children whose
  CONNECT message it actually received in Phase I ("known children").
* If a convergecast message is lost, that child's whole subtree contribution
  is missing from the root's local aggregate; there are no retransmissions,
  matching the paper's model.  Transmission times follow the *send
  schedule*: a node transmits one round after the last scheduled send of
  its known children, whether or not those messages survived (silence past
  the scheduled round means loss; synchronous rounds make the schedule
  locally computable).  The schedule is a pure function of the forest, so
  loss changes which contributions arrive but never when anything is sent —
  both backends run the identical schedule, rounds included.
* If a broadcast message is lost, the child's subtree never learns the
  payload (such nodes cannot forward Phase III gossip to their root).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..observability.telemetry import current_telemetry
from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on
from .drr import DRRResult

__all__ = [
    "ConvergecastResult",
    "BroadcastResult",
    "ConvergecastNode",
    "BroadcastNode",
    "run_convergecast",
    "run_broadcast",
]

Op = Literal["max", "min", "sum"]


@dataclass
class ConvergecastResult:
    """Per-root local aggregates computed by a convergecast pass.

    ``local_value[r]`` is the local Max/Min (op="max"/"min") or local Sum
    (op="sum") of the tree rooted at ``r``; ``local_weight[r]`` is the number
    of nodes whose value actually reached the root (equal to the tree size on
    a reliable network).  Dictionaries are keyed by root id.
    """

    op: str
    local_value: dict[int, float]
    local_weight: dict[int, int]
    rounds: int
    metrics: MetricsCollector

    def value_vector(self, roots: np.ndarray) -> np.ndarray:
        return _gather(self.local_value, roots)

    def weight_vector(self, roots: np.ndarray) -> np.ndarray:
        return _gather(self.local_weight, roots)


def _gather(by_root: dict, roots: np.ndarray) -> np.ndarray:
    """``by_root``'s values at ``roots``, in order, as a float vector."""
    keys = np.asarray(roots).tolist()
    return np.fromiter(map(by_root.__getitem__, keys), dtype=float, count=len(keys))


@dataclass
class BroadcastResult:
    """Outcome of a root-to-tree broadcast.

    ``received[i]`` is True when node ``i`` got the payload;
    ``payload[i]`` is the delivered value (NaN / -1 when not received).
    """

    received: np.ndarray
    payload: np.ndarray
    rounds: int
    metrics: MetricsCollector

    @property
    def coverage(self) -> float:
        return float(self.received.mean())


def _reduce(op: str, a: float, b: float) -> float:
    if op == "max":
        return max(a, b)
    if op == "min":
        return min(a, b)
    if op == "sum":
        return a + b
    raise ValueError(f"unknown convergecast op {op!r}")


def _alive_of(drr: DRRResult) -> np.ndarray:
    alive = drr.forest.alive
    return alive if alive is not None else np.ones(drr.forest.n, dtype=bool)


# --------------------------------------------------------------------------- #
# convergecast
# --------------------------------------------------------------------------- #
def run_convergecast(
    drr: DRRResult,
    values: np.ndarray,
    op: Op = "max",
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    backend: str = "vectorized",
) -> ConvergecastResult:
    """Compute local per-tree aggregates at the roots (Algorithms 2 / 3)."""
    forest = drr.forest
    n = forest.n
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {values.shape}")
    if op not in ("max", "min", "sum"):
        raise ValueError(f"unknown convergecast op {op!r}")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("convergecast")
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _convergecast_vectorized(
            kernel, drr, values, op, oracle, rng, metrics
        ),
        engine=lambda kernel: _convergecast_engine(
            kernel, drr, values, op, failure_model, oracle, rng, metrics
        ),
    )


def _convergecast_vectorized(
    kernel: VectorizedKernel,
    drr: DRRResult,
    values: np.ndarray,
    op: str,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> ConvergecastResult:
    schedule = drr.schedule
    index = schedule.index
    order, up_pos = index.order, index.up_pos
    known, alive, send = schedule.known, schedule.alive, schedule.send
    everyone_alive = bool(alive.all())
    alive_arg = None if everyone_alive else drr.forest.alive
    fold = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]
    payload_words = 1 if op in ("max", "min") else 2

    # Accumulators in index order: every alive node starts with its own
    # value and weight 1.
    acc_value = values.take(order)
    acc_weight = alive.astype(np.int64)

    # Sweep the forest bottom-up, one layer per batch: a layer's upward
    # transmissions are charged, lossed, and folded as arrays.  The loss
    # oracle keys each transmission by its scheduled send round, so
    # batching by depth instead of by round changes nothing.  Each parent's
    # children are one ascending-id run, so `ufunc.at` folds them in the
    # engine's order.
    with current_telemetry().span("substrate.convergecast_layers"):
        for lo, hi in reversed(index.layers()):
            senders = np.arange(lo, hi) if everyone_alive else lo + alive[lo:hi].nonzero()[0]
            parents = up_pos[senders]
            delivered = kernel.deliver(
                metrics,
                oracle,
                MessageKind.CONVERGECAST,
                order[parents],
                senders=order[senders],
                round_index=send[senders] - 1,
                alive=alive_arg,
                payload_words=payload_words,
            )
            folded = delivered & known[senders]
            src, dst = senders[folded], parents[folded]
            fold.at(acc_value, dst, acc_value.take(src))
            np.add.at(acc_weight, dst, acc_weight.take(src))

    # the roots lead the index, in ascending id
    live = np.flatnonzero(alive[: index.bounds[1]])
    roots = order[live].tolist()
    # only alive non-roots have a non-zero send round
    rounds = int(send.max(initial=0))
    metrics.record_round(rounds)
    return ConvergecastResult(
        op=op,
        local_value=dict(zip(roots, acc_value[live].tolist())),
        local_weight=dict(zip(roots, acc_weight[live].tolist())),
        rounds=rounds,
        metrics=metrics,
    )


class ConvergecastNode(ProtocolNode):
    """Per-node convergecast state machine (Algorithms 2 and 3).

    Transmissions follow the shared send schedule (see
    :class:`~repro.core.forest.TreeSchedule`): the node sends in round
    ``send_at`` whether or not every known child's message arrived — a lost
    message means a missing contribution, never a delay, matching the
    vectorized backend exactly.

    Children's reports are buffered and folded in ascending child id just
    before the node sends (a root: before its aggregate is read).  That is
    the order in which the columnar ``np.add.at`` over a depth layer adds
    them, so float sums agree bit for bit; in a synchronous round either
    order is a valid execution.
    """

    def __init__(
        self,
        node_id: int,
        value: float,
        parent: int | None,
        known_children: tuple[int, ...],
        op: str,
        send_at: int,
        done_at: int,
    ) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.weight = 1
        self.parent = parent
        self.known = set(known_children)
        self.op = op
        #: 0-based round in which this node transmits to its parent
        self.send_at = int(send_at)
        #: 0-based round after which a root's aggregate is final
        self.done_at = int(done_at)
        self.sent = False
        self._rounds_seen = -1
        #: (child id, value, weight) of the reports not yet folded
        self._reports: list[tuple[int, float, int]] = []

    def _fold_reports(self) -> None:
        for _, value, weight in sorted(self._reports):
            self.value = _reduce(self.op, self.value, value)
            self.weight += weight
        self._reports.clear()

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self._rounds_seen = ctx.round_index
        if self.parent is None or self.sent or ctx.round_index < self.send_at:
            return []
        self.sent = True
        self._fold_reports()
        return [
            Send(
                recipient=self.parent,
                kind=MessageKind.CONVERGECAST,
                payload={"value": self.value, "weight": self.weight, "child": self.node_id},
                payload_words=1 if self.op in ("max", "min") else 2,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind != MessageKind.CONVERGECAST.value:
                continue
            child = int(message.get("child", message.sender))
            if child not in self.known:
                # Unknown child (its CONNECT was lost): ignore, see module
                # docstring for the rationale.
                continue
            self.known.discard(child)
            self._reports.append(
                (child, float(message.get("value")), int(message.get("weight", 1)))
            )
        return []

    def is_complete(self) -> bool:
        if self.parent is None:
            return self._rounds_seen >= self.done_at - 1
        return self.sent

    def result(self) -> dict:
        self._fold_reports()
        return {"value": self.value, "weight": self.weight}


def _convergecast_engine(
    kernel: EngineKernel,
    drr: DRRResult,
    values: np.ndarray,
    op: str,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> ConvergecastResult:
    forest = drr.forest
    n = forest.n
    alive = _alive_of(drr)
    known = drr.known_children
    send_round = drr.schedule.send_round
    last_child_round = drr.schedule.last_child_round
    nodes = [
        ConvergecastNode(
            node_id=i,
            value=float(values[i]),
            parent=(int(forest.parent[i]) if forest.parent[i] >= 0 else None),
            known_children=known[i],
            op=op,
            send_at=int(send_round[i]) - 1,
            done_at=int(last_child_round[i]),
        )
        for i in range(n)
    ]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=int(send_round.max(initial=0)) + 4,
        strict=False,
    )

    alive_roots = forest.roots[alive[forest.roots]].tolist()
    outcomes = {r: nodes[r].result() for r in alive_roots}
    local_value = {r: float(out["value"]) for r, out in outcomes.items()}
    local_weight = {r: int(out["weight"]) for r, out in outcomes.items()}
    return ConvergecastResult(
        op=op,
        local_value=local_value,
        local_weight=local_weight,
        rounds=outcome.rounds,
        metrics=metrics,
    )


# --------------------------------------------------------------------------- #
# broadcast
# --------------------------------------------------------------------------- #
def run_broadcast(
    drr: DRRResult,
    root_payload: dict[int, float],
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    phase_name: str = "broadcast",
    backend: str = "vectorized",
) -> BroadcastResult:
    """Push a per-root payload down every tree (one child served per round)."""
    forest = drr.forest
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=forest.n)
    metrics.begin_phase(phase_name)
    oracle = LossOracle.for_run(failure_model, rng)
    keys = np.fromiter(root_payload, dtype=np.int64, count=len(root_payload))
    not_root = forest.parent[keys] >= 0
    if not_root.any():
        raise ValueError(f"node {int(keys[np.argmax(not_root)])} is not a root")

    return run_on(
        backend,
        vectorized=lambda kernel: _broadcast_vectorized(
            kernel, drr, root_payload, oracle, rng, metrics
        ),
        engine=lambda kernel: _broadcast_engine(
            kernel, drr, root_payload, failure_model, oracle, rng, metrics
        ),
    )


def _broadcast_vectorized(
    kernel: VectorizedKernel,
    drr: DRRResult,
    root_payload: dict[int, float],
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> BroadcastResult:
    forest = drr.forest
    n = forest.n
    alive = _alive_of(drr)
    schedule = drr.schedule
    index = schedule.index
    order, up_pos = index.order, index.up_pos
    known, sib = schedule.known, schedule.sib
    alive_arg = None if alive.all() else alive

    # State in index order; a node holds the payload once its receive
    # round is set.
    payload = np.full(n, np.nan, dtype=float)
    receive_round = np.full(n, -1, dtype=np.int64)

    roots = np.fromiter(root_payload, dtype=np.int64, count=len(root_payload))
    values = np.fromiter(root_payload.values(), dtype=float, count=len(root_payload))
    seeded = alive[roots]
    # the roots lead the index, in ascending id
    at = np.searchsorted(order[: index.bounds[1]], roots[seeded])
    payload[at] = values[seeded]
    receive_round[at] = 0

    # Sweep the trees top-down one layer per batch.  A parent serves its
    # known children one per round in ascending id order, so a child's
    # arrival round is its parent's receive round plus its sibling rank, and
    # the transmission is charged whether or not it survives.  Children are
    # served whether or not they are still alive: a parent has no way to
    # learn that a child died after tree construction (mid-run churn), so
    # it wastes that round -- the transmission is charged and swallowed,
    # exactly as the message-level engine does.
    max_round = 0
    with current_telemetry().span("substrate.broadcast_layers"):
        for lo, hi in index.layers():
            parent_round = receive_round[up_pos[lo:hi]]
            served = known[lo:hi] & (parent_round >= 0)
            if not served.any():
                continue
            layer = lo + served.nonzero()[0]
            parents = up_pos[layer]
            arrival = parent_round[served] + sib[layer]
            max_round = max(max_round, int(arrival.max()))
            # A transmission to a depth-d child is sent in the round before
            # its arrival (its parent's serving round), which is the round
            # the engine stamps on the same message.
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.BROADCAST, order[layer],
                senders=order[parents], round_index=arrival - 1, alive=alive_arg,
            )
            got = layer[delivered]
            payload[got] = payload[parents[delivered]]
            receive_round[got] = arrival[delivered]

    metrics.record_round(max_round)
    return BroadcastResult(
        received=index.by_id(receive_round >= 0),
        payload=index.by_id(payload),
        rounds=max_round,
        metrics=metrics,
    )


class BroadcastNode(ProtocolNode):
    """Per-node broadcast state machine (root address / final aggregate)."""

    def __init__(self, node_id: int, known_children: tuple[int, ...], payload: float | None) -> None:
        super().__init__(node_id)
        self.pending_children = sorted(known_children)
        self.payload = payload
        self.received = payload is not None

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if not self.received or not self.pending_children:
            return []
        child = self.pending_children.pop(0)
        return [
            Send(recipient=child, kind=MessageKind.BROADCAST, payload={"value": self.payload})
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.BROADCAST.value and not self.received:
                self.received = True
                self.payload = float(message.get("value"))
        return []

    def is_complete(self) -> bool:
        # A node that never receives the payload (lost broadcast upstream, or
        # simply not in any seeded tree) cannot forward; it is "complete" in
        # the sense that it will never act again.
        return not self.received or not self.pending_children


def _broadcast_engine(
    kernel: EngineKernel,
    drr: DRRResult,
    root_payload: dict[int, float],
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> BroadcastResult:
    forest = drr.forest
    n = forest.n
    alive = _alive_of(drr)
    known = drr.known_children
    nodes = [
        BroadcastNode(
            node_id=i,
            known_children=known[i],
            payload=(float(root_payload[i]) if i in root_payload else None),
        )
        for i in range(n)
    ]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=4 * n + 16,
        strict=False,
    )

    received = np.array([node.received for node in nodes], dtype=bool)
    received &= alive
    payload = np.array(
        [node.payload if node.payload is not None else np.nan for node in nodes], dtype=float
    )
    payload[~alive] = np.nan
    return BroadcastResult(received=received, payload=payload, rounds=outcome.rounds, metrics=metrics)
