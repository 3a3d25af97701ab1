"""Local-DRR -- the ranking scheme for sparse networks (Section 4).

On an arbitrary undirected graph, point-to-point calls between random pairs
are not available; instead the standard message-passing assumption holds: a
node can send (possibly different) messages to *all* of its neighbours in one
round.  Local-DRR exploits it:

1. every node draws a rank uniformly at random from [0, 1];
2. every node exchanges its rank with all neighbours (one round, two messages
   per edge);
3. every node whose highest-ranked neighbour out-ranks it connects to that
   neighbour (one connection message); a node that out-ranks all of its
   neighbours becomes a root.

The output is a forest with the properties the paper proves:

* height of every tree is ``O(log n)`` whp on any graph (Theorem 11);
* the number of trees concentrates around ``sum_i 1/(d_i + 1)`` (Theorem 13),
  i.e. ``O(n/d)`` on d-regular graphs.

Phase I therefore costs ``O(1)`` rounds and ``O(|E|)`` messages, and the rest
of DRR-gossip proceeds as before with a routing protocol supplying random
peers (Theorem 14).

:func:`run_local_drr` is the single entry point; like every other protocol in
the repository it takes a ``backend`` argument:

* ``"vectorized"`` -- the columnar topology kernel: the round of rank
  announcements is one batch over the graph's directed edge arrays
  (CSR-backed, see :meth:`repro.topology.base.Topology.edge_arrays`), the
  connect round one batch over the chosen child->parent pairs.  Handles
  ``n = 10^6`` sparse graphs in seconds.
* ``"engine"`` -- per-node :class:`LocalDRRNode` state machines on the
  :class:`~repro.simulator.engine.SynchronousEngine` in the message-passing
  model (``calls_per_round`` = degree), every rank announcement an
  individual message.

Both backends draw ranks and crash masks in the shared preamble and decide
per-edge message loss through the identity-keyed loss oracle, so they
produce the identical forest, connect mask, rounds, and message accounting
for the same seed on reliable *and* lossy networks.  When the best
out-ranking neighbour is tied (possible with externally supplied integer
ranks), both pick the smallest node id among the maxima.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, neighbor_broadcast, run_on
from ..topology.base import Topology
from .drr import DRRResult
from .forest import Forest

__all__ = ["LocalDRRNode", "run_local_drr"]


def run_local_drr(
    topology: Topology,
    rng: np.random.Generator | int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    ranks: np.ndarray | None = None,
    alive: np.ndarray | None = None,
    backend: str = "vectorized",
) -> DRRResult:
    """Run Local-DRR over ``topology`` and return the ranking forest.

    The result uses the same :class:`~repro.core.drr.DRRResult` container as
    complete-graph DRR so Phase II (convergecast / broadcast) is reused
    unchanged.

    Failure semantics: a lost rank-exchange message means the recipient does
    not know that neighbour's rank and simply ignores it when choosing a
    parent; a lost connection message leaves the parent unaware of the child
    exactly as in complete-graph DRR.
    """
    n = topology.n
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector()
    metrics.begin_phase("local-drr")

    # Shared preamble: crash sampling, rank drawing, and loss-oracle key
    # derivation happen exactly once, before backend dispatch.
    if alive is None:
        alive = ~failure_model.sample_crashes(n, rng)
    alive = np.asarray(alive, dtype=bool)
    if ranks is None:
        ranks = rng.random(n)
    else:
        ranks = np.asarray(ranks, dtype=float)
        if ranks.shape != (n,):
            raise ValueError("ranks must have shape (n,)")
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _local_drr_vectorized(
            kernel, topology, oracle, alive, ranks, metrics
        ),
        engine=lambda kernel: _local_drr_engine(
            kernel, topology, failure_model, oracle, rng, alive, ranks, metrics
        ),
    )


# --------------------------------------------------------------------------- #
# vectorized (columnar topology kernel) backend
# --------------------------------------------------------------------------- #
def _local_drr_vectorized(
    kernel: VectorizedKernel,
    topology: Topology,
    oracle: LossOracle,
    alive: np.ndarray,
    ranks: np.ndarray,
    metrics: MetricsCollector,
) -> DRRResult:
    n = topology.n
    parent = np.full(n, -1, dtype=np.int64)
    connect_delivered = np.zeros(n, dtype=bool)
    degrees = topology.degrees()

    # Round 1: every alive node announces its rank over every incident edge;
    # one neighbour-broadcast batch over the directed edge arrays.
    src, dst, delivered = neighbor_broadcast(
        metrics, oracle, MessageKind.RANK, topology,
        senders_alive=alive, round_index=0, alive=alive, payload_words=1,
    )
    # What each alive node learned, and its choice of parent: the delivered
    # out-ranking announcement with the highest rank (smallest sender id on
    # ties, matching the engine's first-strict-improvement scan).
    heard = delivered & (ranks[src] > ranks[dst])
    cand_from, cand_to = src[heard], dst[heard]
    if cand_to.size:
        order = np.lexsort((cand_from, -ranks[cand_from], cand_to))
        best = order[np.r_[True, cand_to[order][1:] != cand_to[order][:-1]]]
        children = cand_to[best]
        parent[children] = cand_from[best]
        # Round 2: one connection message per attaching node.
        connect_delivered[children] = kernel.deliver(
            metrics, oracle, MessageKind.CONNECT, cand_from[best],
            senders=children, round_index=1, alive=alive, payload_words=1,
        )

    metrics.record_round(2)
    forest = Forest(parent=parent, rank=ranks, alive=alive)
    forest.validate()
    return DRRResult(
        forest=forest,
        connect_delivered=connect_delivered,
        probes=degrees.astype(np.int64),
        rounds=2,
        metrics=metrics,
    )


# --------------------------------------------------------------------------- #
# engine (message-level) backend
# --------------------------------------------------------------------------- #
class LocalDRRNode(ProtocolNode):
    """Per-node Local-DRR state machine (message-passing model).

    Round 0 broadcasts the node's rank to all neighbours; round 1 sends one
    CONNECT to the best out-ranking neighbour heard (if any).
    """

    def __init__(self, node_id: int, rank: float, neighbors: Sequence[int]) -> None:
        super().__init__(node_id)
        self.rank = float(rank)
        self.neighbors = [int(v) for v in neighbors]
        self.calls_per_round = max(1, len(self.neighbors))
        self.best_rank = self.rank
        self.best_neighbor = -1
        self.parent: int | None = None
        self.children: list[int] = []
        self._rounds_seen = -1

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self._rounds_seen = ctx.round_index
        if ctx.round_index == 0:
            return [
                Send(recipient=neighbor, kind=MessageKind.RANK, payload={"rank": self.rank})
                for neighbor in self.neighbors
            ]
        if ctx.round_index == 1 and self.best_neighbor >= 0:
            self.parent = self.best_neighbor
            return [
                Send(
                    recipient=self.best_neighbor,
                    kind=MessageKind.CONNECT,
                    payload={"child": self.node_id},
                )
            ]
        return []

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.RANK.value:
                rank = float(message.get("rank"))
                if rank > self.best_rank:
                    self.best_rank = rank
                    self.best_neighbor = message.sender
            elif message.kind == MessageKind.CONNECT.value:
                child = int(message.get("child", message.sender))
                if child not in self.children:
                    self.children.append(child)
        return []

    def is_complete(self) -> bool:
        return self._rounds_seen >= 1


def _local_drr_engine(
    kernel: EngineKernel,
    topology: Topology,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    alive: np.ndarray,
    ranks: np.ndarray,
    metrics: MetricsCollector,
) -> DRRResult:
    n = topology.n
    nodes = [LocalDRRNode(i, float(ranks[i]), topology.neighbors(i)) for i in range(n)]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=4,
        strict=False,
    )

    parent = np.full(n, -1, dtype=np.int64)
    connect_delivered = np.zeros(n, dtype=bool)
    for node in nodes:
        if node.parent is not None:
            parent[node.node_id] = node.parent
        for child in node.children:
            connect_delivered[child] = True

    forest = Forest(parent=parent, rank=ranks, alive=alive)
    forest.validate()
    return DRRResult(
        forest=forest,
        connect_delivered=connect_delivered,
        probes=topology.degrees().astype(np.int64),
        rounds=outcome.rounds,
        metrics=metrics,
    )
