"""Phase I -- Distributed Random Ranking (Algorithm 1 of the paper).

Every node draws a rank uniformly at random from [0, 1] and then probes up to
``log2(n) - 1`` random nodes, one per round, until it finds a node of higher
rank; it connects to the first such node (sending it a *connection message*)
or becomes a root if the probe budget is exhausted.  Because every edge goes
from a lower rank to a strictly higher rank, the result is a forest.

:func:`run_drr` is the single entry point; the ``backend`` argument selects
the execution kernel:

* ``"vectorized"`` -- the columnar kernel: each probing round is one batch
  of targets / losses / rank comparisons over all still-searching nodes.
  Used by the large-``n`` scaling sweeps (Theorems 2-4: the ``forest``
  experiment, E2-E4).
* ``"engine"`` -- :class:`DRRNode` state machines on the message-level
  simulator; probes, rank replies, and connection messages are individual
  messages.  Used by the fidelity and failure-injection tests.

Both backends execute the same per-round random process and consume the RNG
stream in the same order, so on a reliable network they produce the *same*
forest, probe counts, rounds, and message accounting for the same seed
(``tests/test_substrate.py`` asserts this).

Message accounting (both backends): each probe is one PROBE message plus one
RANK reply (if the probe arrived), and each successful attachment sends one
CONNECT message.  Total messages are therefore ~2x the number of probes,
which keeps the ``O(n log log n)`` shape of Theorem 4 (the paper charges one
message per probe, so measured totals carry a constant factor of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on
from .forest import Forest, TreeSchedule, build_tree_schedule

__all__ = ["DRRResult", "DRRNode", "run_drr", "default_probe_budget"]


def default_probe_budget(n: int) -> int:
    """The paper's probe budget: ``log2(n) - 1`` samples per node (at least 1)."""
    return max(1, int(math.ceil(math.log2(max(2, n)))) - 1)


@dataclass
class DRRResult:
    """Output of Phase I.

    Attributes
    ----------
    forest:
        The ranking forest (child-side view: ``parent[i]`` is the node ``i``
        believes is its parent, or ``-1``).
    connect_delivered:
        ``connect_delivered[i]`` is True when node ``i``'s connection message
        reached its parent.  Under message loss a parent may not know about a
        child; Phase II uses this mask so convergecast only waits for the
        children the parent actually learned about (exactly what happens in
        the message-level implementation).
    probes:
        Number of probes each node sent.
    rounds:
        Rounds Phase I took (= max probes over nodes).
    metrics:
        Message/round accounting for the phase.
    """

    forest: Forest
    connect_delivered: np.ndarray
    probes: np.ndarray
    rounds: int
    metrics: MetricsCollector

    @property
    def known_child_mask(self) -> np.ndarray:
        """``mask[i]`` is True when node ``i`` is a child its parent knows about."""
        return (self.forest.parent >= 0) & self.connect_delivered

    @cached_property
    def schedule(self) -> TreeSchedule:
        """The tree schedule every Phase II / final-Broadcast pass sweeps.

        Built on first use over the forest's BFS index
        (:attr:`Forest.tree_index`) and shared by the convergecast and both
        broadcasts on every backend, so no phase re-derives it.
        """
        return build_tree_schedule(self.forest, self.known_child_mask)

    @property
    def known_children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists as seen by parents (connection message arrived)."""
        kids: list[list[int]] = [[] for _ in range(self.forest.n)]
        for child in np.flatnonzero(self.known_child_mask):
            kids[int(self.forest.parent[child])].append(int(child))
        return tuple(tuple(k) for k in kids)


def run_drr(
    n: int,
    rng: np.random.Generator | int | None = None,
    probe_budget: int | None = None,
    failure_model: FailureModel | None = None,
    alive: np.ndarray | None = None,
    metrics: MetricsCollector | None = None,
    ranks: np.ndarray | None = None,
    backend: str = "vectorized",
) -> DRRResult:
    """Run DRR over ``n`` nodes and return the ranking forest.

    Parameters
    ----------
    n:
        Number of nodes.
    rng:
        Seed or generator.
    probe_budget:
        Maximum probes per node; defaults to the paper's ``log2(n) - 1``.
    failure_model:
        Message-loss / crash model; defaults to a reliable network.
    alive:
        Optional precomputed liveness mask (overrides the failure model's
        crash sampling so composite pipelines can share one mask).
    metrics:
        Optional collector to accumulate into (a new one is created
        otherwise); the phase is recorded under the name ``"drr"``.
    ranks:
        Optional externally drawn ranks (used by ablation experiments that
        compare the [0,1] rank domain against the [1, n^3] integer domain).
    backend:
        Substrate backend: ``"vectorized"`` (default) or ``"engine"``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    budget = probe_budget if probe_budget is not None else default_probe_budget(n)
    if budget < 1:
        raise ValueError("probe budget must be at least 1")
    metrics = metrics if metrics is not None else MetricsCollector()
    metrics.begin_phase("drr")

    # Shared preamble: crash sampling, rank drawing, and loss-oracle key
    # derivation happen exactly once, before backend dispatch, so both
    # kernels see the same world.
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
        vectorized=lambda kernel: _run_drr_vectorized(
            kernel, n, rng, budget, failure_model, oracle, alive, ranks, metrics
        ),
        engine=lambda kernel: _run_drr_engine(
            kernel, n, rng, budget, failure_model, oracle, alive, ranks, metrics
        ),
    )


# --------------------------------------------------------------------------- #
# vectorized (columnar) backend
# --------------------------------------------------------------------------- #
def _run_drr_vectorized(
    kernel: VectorizedKernel,
    n: int,
    rng: np.random.Generator,
    budget: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    alive: np.ndarray,
    ranks: np.ndarray,
    metrics: MetricsCollector,
) -> DRRResult:
    parent = np.full(n, -1, dtype=np.int64)
    connect_delivered = np.zeros(n, dtype=bool)
    probes_used = np.zeros(n, dtype=np.int64)
    # ``None`` tells the delivery primitives "nobody crashed" so they skip
    # the per-message liveness gathers entirely (accounting is unchanged).
    alive_arg = None if alive.all() else alive

    # The searching frontier is carried as a compacted, ascending id array
    # (rather than re-scanning an n-sized mask every round): filtering it
    # preserves the order `flatnonzero` would produce, so the shared RNG
    # stream is consumed exactly as before.
    active = np.flatnonzero(alive)

    rounds = 0
    while active.size and rounds < budget:
        rounds += 1
        metrics.record_round()
        probes_used[active] += 1
        targets = kernel.sample_uniform(rng, n, active.size, exclude=active)
        # One fused pass: PROBE fates, RANK reply fates, rank comparison.
        found = kernel.probe_exchange(
            metrics, oracle, targets,
            senders=active, ranks=ranks, round_index=rounds - 1, alive=alive_arg,
        )
        finders = active[found]
        if finders.size:
            chosen = targets[found]
            parent[finders] = chosen
            connect_ok = kernel.deliver(
                metrics, oracle, MessageKind.CONNECT, chosen,
                senders=finders, round_index=rounds - 1, alive=alive_arg,
            )
            connect_delivered[finders] = connect_ok
            active = active[~found]

    forest = Forest(parent=parent, rank=ranks, alive=alive)
    forest.validate()
    return DRRResult(
        forest=forest,
        connect_delivered=connect_delivered,
        probes=probes_used,
        rounds=rounds,
        metrics=metrics,
    )


# --------------------------------------------------------------------------- #
# engine (message-level) backend
# --------------------------------------------------------------------------- #
class DRRNode(ProtocolNode):
    """Per-node state machine for Algorithm 1 on the simulator substrate."""

    def __init__(self, node_id: int, rank: float, probe_budget: int) -> None:
        super().__init__(node_id)
        self.rank = float(rank)
        self.probe_budget = int(probe_budget)
        self.parent: int | None = None
        self.children: list[int] = []
        self.probes_sent = 0
        self.found = False
        #: round index in which this node stopped probing (for diagnostics)
        self.finished_round: int | None = None

    # -- engine callbacks ------------------------------------------------ #
    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if self.found or self.probes_sent >= self.probe_budget:
            if self.finished_round is None:
                self.finished_round = ctx.round_index
            return []
        self.probes_sent += 1
        target = ctx.random_node(exclude=self.node_id)
        return [Send(recipient=target, kind=MessageKind.PROBE, payload={"rank": self.rank})]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        replies: list[Send] = []
        for message in messages:
            if message.kind == MessageKind.PROBE.value:
                replies.append(
                    Send(
                        recipient=message.sender,
                        kind=MessageKind.RANK,
                        payload={"rank": self.rank},
                    )
                )
            elif message.kind == MessageKind.RANK.value:
                if not self.found and float(message.get("rank")) > self.rank:
                    self.found = True
                    self.parent = message.sender
                    self.finished_round = ctx.round_index
                    replies.append(
                        Send(
                            recipient=message.sender,
                            kind=MessageKind.CONNECT,
                            payload={"child": self.node_id},
                        )
                    )
            elif message.kind == MessageKind.CONNECT.value:
                child = int(message.get("child", message.sender))
                if child not in self.children:
                    self.children.append(child)
        return replies

    def is_complete(self) -> bool:
        return self.found or self.probes_sent >= self.probe_budget


def _run_drr_engine(
    kernel: EngineKernel,
    n: int,
    rng: np.random.Generator,
    budget: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    alive: np.ndarray,
    ranks: np.ndarray,
    metrics: MetricsCollector,
) -> DRRResult:
    nodes = [DRRNode(i, float(ranks[i]), budget) for i in range(n)]
    # Four sub-steps so the full probe -> rank -> connect exchange completes
    # within the round it was initiated ("sample a node ... and get its rank"
    # in Algorithm 1), matching the vectorized backend's round accounting.
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=4,
        max_rounds=budget + 4,
    )

    parent = np.full(n, -1, dtype=np.int64)
    connect_delivered = np.zeros(n, dtype=bool)
    probes = np.zeros(n, dtype=np.int64)
    for node in nodes:
        probes[node.node_id] = node.probes_sent
        if node.parent is not None:
            parent[node.node_id] = node.parent
    for node in nodes:
        for child in node.children:
            connect_delivered[child] = True

    forest = Forest(parent=parent, rank=ranks, alive=alive)
    forest.validate()
    return DRRResult(
        forest=forest,
        connect_delivered=connect_delivered,
        probes=probes,
        rounds=outcome.rounds,
        metrics=metrics,
    )
