"""The topology-aware kernel path of the execution substrate.

The point-to-point kernels in :mod:`repro.substrate.kernel` execute
protocols whose communication primitive is "call a uniformly random node".
Section 4 of the paper runs on *topologies*: Local-DRR communicates over the
edges of an arbitrary graph (neighbour broadcast in the message-passing
model), and the Chord experiments route messages hop-by-hop through an
overlay.  This module gives those workloads the same
``backend="vectorized" | "engine"`` contract as everything else:

* :func:`neighbor_broadcast` — one round of "every sender messages all of
  its neighbours", executed as a single batch over the graph's directed
  edge arrays (the CSR view of :class:`~repro.topology.base.Topology`).
  Local-DRR's rank-exchange round is exactly this primitive.
* :func:`run_chord_lookups` — a *batch* of Chord identifier lookups, all
  in-flight routes advancing one overlay hop per round.  The vectorized
  path keeps every route's cursor in an array and resolves the greedy
  finger choice with one columnar pass per finger level; the engine path
  runs :class:`ChordLookupNode` state machines that queue incoming routes
  and forward them in their next round.

Both paths charge messages and decide loss through the shared delivery /
oracle machinery in :mod:`repro.substrate.delivery`, so the two backends
produce identical owners, hop counts, rounds, and (lost-)message accounting
for the same seed — on reliable and lossy networks alike.  A route's hop
messages are keyed for the loss oracle by ``(round, LOOKUP, from, to,
route_id)``; the route id is the nonce because two routes can legitimately
cross the same overlay link in the same round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..observability.telemetry import instrumented
from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from .delivery import deliver_batch
from .kernel import EngineKernel, VectorizedKernel, run_on

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Topology
    from ..topology.chord import ChordNetwork

__all__ = [
    "ChordLookupBatch",
    "ChordLookupNode",
    "neighbor_broadcast",
    "run_chord_lookups",
]


# --------------------------------------------------------------------------- #
# neighbour broadcast (message-passing model on a graph)
# --------------------------------------------------------------------------- #
@instrumented("substrate.neighbor_broadcast")
def neighbor_broadcast(
    metrics: MetricsCollector,
    oracle: LossOracle,
    kind: str | MessageKind,
    topology: "Topology",
    *,
    senders_alive: np.ndarray,
    round_index: int,
    alive: np.ndarray | None = None,
    payload_words: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched round of "every alive sender messages all its neighbours".

    Returns ``(src, dst, delivered)`` over the directed edges whose sender
    is alive: the transmission arrays and the per-edge delivered mask.
    Charging and loss semantics are those of :func:`deliver_batch` (every
    attempt charged; lost when the link drops it or the recipient is dead).
    """
    src, dst = topology.edge_arrays()
    live = senders_alive[src]
    src, dst = src[live], dst[live]
    delivered = deliver_batch(
        metrics, oracle, kind, dst,
        senders=src, round_index=round_index,
        alive=alive if alive is not None else senders_alive,
        payload_words=payload_words,
    )
    return src, dst, delivered


# --------------------------------------------------------------------------- #
# batched Chord lookups
# --------------------------------------------------------------------------- #
@dataclass
class ChordLookupBatch:
    """Outcome of a batch of Chord identifier lookups.

    Attributes
    ----------
    owners:
        Node index responsible for each target identifier, or ``-1`` when
        the route died (a hop message was lost — there are no retries).
    hops:
        Overlay hops attempted per route, including a final lost hop.
    delivered:
        Whether the route reached its owner.
    replied:
        Whether the owner's reply reached the source (always False when the
        batch ran without ``count_reply``; a reply can be lost even when
        the forward route delivered).
    rounds:
        Rounds the batch took (all in-flight routes advance one hop per
        round, so this is the max hop count, plus the trailing reply round
        under ``count_reply``).
    metrics:
        Message accounting (every hop is one LOOKUP message; every reply
        one LOOKUP_REPLY message).
    reply_messages:
        Number of LOOKUP_REPLY messages sent (one per delivered route when
        ``count_reply`` was requested, matching the ``hops + 1`` cost model
        of :meth:`ChordNetwork.lookup`).
    """

    owners: np.ndarray
    hops: np.ndarray
    delivered: np.ndarray
    replied: np.ndarray
    rounds: int
    metrics: MetricsCollector
    reply_messages: int = 0

    @property
    def messages(self) -> int:
        return int(self.hops.sum()) + int(self.reply_messages)

    @property
    def completion_fraction(self) -> float:
        return float(self.delivered.mean()) if self.delivered.size else 1.0


def run_chord_lookups(
    chord: "ChordNetwork",
    sources: np.ndarray,
    target_identifiers: np.ndarray,
    *,
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    phase_name: str = "chord-lookup",
    backend: str = "vectorized",
    count_reply: bool = False,
) -> ChordLookupBatch:
    """Route a batch of identifier lookups, one overlay hop per round.

    Each route starts at ``sources[i]`` and greedily follows finger tables
    toward ``target_identifiers[i]``, exactly like
    :meth:`ChordNetwork.lookup`; the batch advances every in-flight route by
    one hop per round, which is how concurrent lookups behave on a real
    overlay and what makes the round count of a gossip-over-Chord round
    well defined.  Under a lossy :class:`FailureModel` a lost hop kills its
    route (no retransmissions, matching the paper's model).

    With ``count_reply`` the owner answers the source directly in the round
    after the final hop (one LOOKUP_REPLY message per delivered route,
    keyed for the loss oracle by the route id — the batched form of the
    ``hops + 1`` cost model of :meth:`ChordNetwork.lookup`).  Replies ride
    the same batched cursor arrays as the forward routes, so requesting
    them adds one round and one message per delivered route, never a
    per-route Python loop.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(target_identifiers, dtype=np.int64) % chord.ring_size
    if sources.shape != targets.shape:
        raise ValueError("sources and target_identifiers must align")
    if sources.size and (sources.min() < 0 or sources.max() >= chord.n):
        raise ValueError("source index out of range")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector()
    metrics.begin_phase(phase_name)
    oracle = LossOracle.for_run(failure_model, rng)
    if sources.size == 0:
        return ChordLookupBatch(
            owners=np.zeros(0, dtype=np.int64),
            hops=np.zeros(0, dtype=np.int64),
            delivered=np.zeros(0, dtype=bool),
            replied=np.zeros(0, dtype=bool),
            rounds=0,
            metrics=metrics,
        )

    return run_on(
        backend,
        vectorized=lambda kernel: _chord_lookups_vectorized(
            kernel, chord, sources, targets, oracle, metrics, count_reply
        ),
        engine=lambda kernel: _chord_lookups_engine(
            kernel, chord, sources, targets, failure_model, oracle, rng, metrics, count_reply
        ),
    )


def _ring_in_interval(x, lo, hi, ring_size: int):
    """Vectorised circular membership test ``x in (lo, hi]`` (mod ring).

    Matches :meth:`ChordNetwork._in_interval` including the degenerate
    ``lo == hi`` case, which denotes the whole ring.
    """
    span = (hi - lo) % ring_size
    offset = (x - lo) % ring_size
    return (span == 0) | ((offset > 0) & (offset <= span))


def _next_hops(
    chord: "ChordNetwork", current: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy next hop for each route: ``(next_node, is_final)`` arrays."""
    ids = chord.identifiers
    ring = chord.ring_size
    succ = chord.successors[current]
    final = _ring_in_interval(targets, ids[current], ids[succ], ring)
    nxt = succ.copy()
    pending = ~final
    if pending.any():
        chosen = current.copy()
        undecided = pending.copy()
        # Columnar closest-preceding-finger: highest finger level first.
        for k in range(chord.m - 1, -1, -1):
            if not undecided.any():
                break
            finger = chord.fingers[current, k]
            hit = undecided & _ring_in_interval(
                ids[finger], ids[current], targets - 1, ring
            )
            chosen[hit] = finger[hit]
            undecided &= ~hit
        # A node with no preceding finger falls back to its successor.
        stuck = pending & (chosen == current)
        chosen[stuck] = succ[stuck]
        nxt[pending] = chosen[pending]
    return nxt, final


def _route_batch(
    chord: "ChordNetwork",
    sources: np.ndarray,
    targets: np.ndarray,
    oracle: LossOracle,
    metrics: MetricsCollector | None,
    count_reply: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The one columnar routing loop:
    ``(owners, hops, delivered, replied, reply_messages, rounds)``.

    With ``metrics`` the loop *is* the vectorized backend (every hop charged
    through :func:`deliver_batch`); without it the same loop replays cursors
    and loss fates only — routing decisions and oracle keys are identical,
    which is how the engine backend reconstructs per-route hop counts
    without double-charging the messages its own execution already charged.

    Replies (``count_reply``) ride the same cursor machinery: routes that
    complete in round ``r`` queue one batched LOOKUP_REPLY send for round
    ``r + 1`` (owner -> source, nonce = route id), exactly when the engine's
    owner node answers from its next ``begin_round``.
    """
    count = sources.size
    owners = np.full(count, -1, dtype=np.int64)
    hops = np.zeros(count, dtype=np.int64)
    delivered = np.zeros(count, dtype=bool)
    replied = np.zeros(count, dtype=bool)
    reply_messages = 0
    current = sources.copy()
    active = np.ones(count, dtype=bool)
    route_ids = np.arange(count, dtype=np.int64)
    #: replies queued for the next round: (owners, sources, route ids)
    pending: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    rounds = 0
    # Greedy routing terminates in <= m + n hops even in degenerate cases
    # (+1 round for the trailing replies); the loop guard protects against
    # bugs, not expected behaviour.
    for _ in range(chord.m + chord.n + 1):
        has_pending = pending is not None and pending[2].size > 0
        if not active.any() and not has_pending:
            break
        if metrics is not None:
            metrics.record_round()
        if has_pending:
            reply_from, reply_to, reply_ids = pending
            reply_messages += int(reply_ids.size)
            if metrics is not None:
                reply_ok = deliver_batch(
                    metrics, oracle, MessageKind.LOOKUP_REPLY, reply_to,
                    senders=reply_from, round_index=rounds,
                    nonces=reply_ids, payload_words=2,
                )
            else:
                reply_ok = ~oracle.sample(
                    rounds, MessageKind.LOOKUP_REPLY, reply_from, reply_to, nonces=reply_ids
                )
            replied[reply_ids[reply_ok]] = True
        pending = None
        idx = np.flatnonzero(active)
        if idx.size:
            nxt, final = _next_hops(chord, current[idx], targets[idx])
            hops[idx] += 1
            if metrics is not None:
                arrived = deliver_batch(
                    metrics, oracle, MessageKind.LOOKUP, nxt,
                    senders=current[idx], round_index=rounds,
                    nonces=route_ids[idx], payload_words=2,
                )
            else:
                arrived = ~oracle.sample(
                    rounds, MessageKind.LOOKUP, current[idx], nxt, nonces=route_ids[idx]
                )
            done = arrived & final
            owners[idx[done]] = nxt[done]
            delivered[idx[done]] = True
            if count_reply and done.any():
                pending = (nxt[done].copy(), sources[idx[done]], route_ids[idx[done]])
            current[idx] = nxt
            active[idx] = arrived & ~final
        rounds += 1
    if active.any():
        raise RuntimeError(
            "Chord lookup batch failed to converge; finger tables are inconsistent"
        )
    return owners, hops, delivered, replied, reply_messages, rounds


def _chord_lookups_vectorized(
    kernel: VectorizedKernel,
    chord: "ChordNetwork",
    sources: np.ndarray,
    targets: np.ndarray,
    oracle: LossOracle,
    metrics: MetricsCollector,
    count_reply: bool,
) -> ChordLookupBatch:
    del kernel  # the shared routing loop charges through deliver_batch
    owners, hops, delivered, replied, reply_messages, rounds = _route_batch(
        chord, sources, targets, oracle, metrics, count_reply
    )
    return ChordLookupBatch(
        owners=owners, hops=hops, delivered=delivered, replied=replied,
        rounds=rounds, metrics=metrics, reply_messages=reply_messages,
    )


class ChordLookupNode(ProtocolNode):
    """A Chord node in a lookup batch: queues incoming routes, forwards next round.

    All nodes share the batch-wide result arrays; the node owning a target
    records the completion when the final hop reaches it (and, when the
    batch runs with ``count_reply``, answers the route's source directly in
    its next round).
    """

    def __init__(
        self,
        node_id: int,
        chord: "ChordNetwork",
        owners: np.ndarray,
        delivered: np.ndarray,
        replied: np.ndarray,
        count_reply: bool = False,
    ) -> None:
        super().__init__(node_id)
        self.chord = chord
        self.owners = owners
        self.delivered = delivered
        self.replied = replied
        self.count_reply = count_reply
        #: routes to forward in the next round, as (route_id, target, source)
        #: triples.  A node may forward arbitrarily many routes per round, so
        #: the batch runs with the engine's call budget disabled
        #: (enforce_call_budget=False in _chord_lookups_engine).
        self.queued: list[tuple[int, int, int]] = []
        #: completed routes whose reply goes out next round: (route_id, source)
        self.reply_queue: list[tuple[int, int]] = []
        #: LOOKUP_REPLY messages this node sent (for the cost model)
        self.replies_sent = 0

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        sends: list[Send] = []
        if self.reply_queue:
            replies, self.reply_queue = self.reply_queue, []
            for route_id, source in replies:
                self.replies_sent += 1
                sends.append(
                    Send(
                        recipient=int(source),
                        kind=MessageKind.LOOKUP_REPLY,
                        payload={"route": int(route_id), "owner": self.node_id},
                        payload_words=2,
                        nonce=int(route_id),
                    )
                )
        if not self.queued:
            return sends
        routes, self.queued = self.queued, []
        for route_id, target, source in routes:
            nxt, final = _next_hops(
                self.chord,
                np.array([self.node_id], dtype=np.int64),
                np.array([target], dtype=np.int64),
            )
            sends.append(
                Send(
                    recipient=int(nxt[0]),
                    kind=MessageKind.LOOKUP,
                    payload={
                        "route": int(route_id),
                        "target": int(target),
                        "source": int(source),
                        "final": bool(final[0]),
                    },
                    payload_words=2,
                    nonce=int(route_id),
                )
            )
        return sends

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.LOOKUP_REPLY.value:
                self.replied[int(message.get("route"))] = True
                continue
            if message.kind != MessageKind.LOOKUP.value:
                continue
            route_id = int(message.get("route"))
            if message.get("final"):
                self.owners[route_id] = self.node_id
                self.delivered[route_id] = True
                if self.count_reply:
                    self.reply_queue.append((route_id, int(message.get("source"))))
            else:
                self.queued.append(
                    (route_id, int(message.get("target")), int(message.get("source")))
                )
        return []

    def is_complete(self) -> bool:
        return not self.queued and not self.reply_queue


def _chord_lookups_engine(
    kernel: EngineKernel,
    chord: "ChordNetwork",
    sources: np.ndarray,
    targets: np.ndarray,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
    count_reply: bool,
) -> ChordLookupBatch:
    count = sources.size
    owners = np.full(count, -1, dtype=np.int64)
    delivered = np.zeros(count, dtype=bool)
    replied = np.zeros(count, dtype=bool)
    nodes = [
        ChordLookupNode(i, chord, owners, delivered, replied, count_reply)
        for i in range(chord.n)
    ]
    for route_id in range(count):
        nodes[int(sources[route_id])].queued.append(
            (route_id, int(targets[route_id]), int(sources[route_id]))
        )

    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=np.ones(chord.n, dtype=bool),
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=chord.m + chord.n + 1,
        strict=False,
        enforce_call_budget=False,
    )
    if not outcome.completed:
        raise RuntimeError(
            "Chord lookup batch failed to converge; finger tables are inconsistent"
        )
    # Per-route hop counts: the engine's own execution already charged every
    # hop to `metrics`, so replay the shared routing loop without metrics to
    # reconstruct cursors and loss fates (both are deterministic).
    hops = _route_batch(chord, sources, targets, oracle, metrics=None)[1]
    return ChordLookupBatch(
        owners=owners, hops=hops, delivered=delivered, replied=replied,
        rounds=outcome.rounds, metrics=metrics,
        reply_messages=sum(node.replies_sent for node in nodes),
    )
