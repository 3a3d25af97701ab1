"""Neighbourhood flooding baseline for sparse topologies.

On a graph with ``|E|`` edges, flooding computes Max/Min exactly in
``diameter`` rounds using ``Theta(|E| * diameter)`` messages (every node
re-announces its current extremum to all neighbours whenever it improves).
It is the "obvious" deterministic alternative to gossip on sparse networks
and serves as a sanity baseline for the Section 4 experiments: DRR-gossip
should beat it on message count whenever the diameter is non-trivial.

Flooding runs in the message-passing model (a node may message all its
neighbours in one round), so the engine backend disables the phone-call
one-call-per-round budget.  Per-edge loss fates come from the identity-keyed
loss oracle, so the backends agree exactly even on lossy networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on
from ..topology.base import Topology

__all__ = ["FloodingResult", "FloodNode", "flood_max"]


@dataclass
class FloodingResult:
    """Outcome of a flooding run."""

    estimates: np.ndarray
    exact: float
    rounds: int
    messages: int
    metrics: MetricsCollector

    @property
    def all_correct(self) -> bool:
        return bool(np.all(self.estimates == self.exact))


def flood_max(
    topology: Topology,
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    max_rounds: int | None = None,
    backend: str = "vectorized",
) -> FloodingResult:
    """Compute Max by repeated neighbourhood announcements."""
    n = topology.n
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"values must have shape ({n},)")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("flooding")
    max_rounds = max_rounds if max_rounds is not None else 2 * n
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _flood_max_vectorized(
            kernel, topology, values, rng, oracle, metrics, max_rounds
        ),
        engine=lambda kernel: _flood_max_engine(
            kernel, topology, values, rng, failure_model, oracle, metrics, max_rounds
        ),
    )


def _flood_max_vectorized(
    kernel: VectorizedKernel,
    topology: Topology,
    values: np.ndarray,
    rng: np.random.Generator,
    oracle: LossOracle,
    metrics: MetricsCollector,
    max_rounds: int,
) -> FloodingResult:
    n = topology.n
    current = values.copy()
    changed = np.ones(n, dtype=bool)
    rounds = 0
    while changed.any() and rounds < max_rounds:
        metrics.record_round()
        rounds += 1
        next_values = current.copy()
        senders = np.flatnonzero(changed)
        changed = np.zeros(n, dtype=bool)
        for node in senders:
            # zero-copy CSR slice; Topology.neighbors() would re-box to tuples
            neighbors = topology.indices[topology.indptr[node]:topology.indptr[node + 1]]
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.DATA, neighbors,
                senders=int(node), round_index=rounds - 1,
            )
            for neighbor in neighbors[delivered]:
                if current[node] > next_values[neighbor]:
                    next_values[neighbor] = current[node]
                    changed[neighbor] = True
        current = next_values
    return FloodingResult(
        estimates=current,
        exact=float(values.max()),
        rounds=rounds,
        messages=metrics.total_messages,
        metrics=metrics,
    )


class FloodNode(ProtocolNode):
    """Per-node flooding state machine (message-passing model)."""

    def __init__(self, node_id: int, value: float, neighbors: Sequence[int]) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.neighbors = [int(v) for v in neighbors]
        self.calls_per_round = max(1, len(self.neighbors))
        self.dirty = True

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if not self.dirty:
            return []
        self.dirty = False
        return [
            Send(recipient=neighbor, kind=MessageKind.DATA, payload={"value": self.value})
            for neighbor in self.neighbors
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.DATA.value:
                incoming = float(message.get("value"))
                if incoming > self.value:
                    self.value = incoming
                    self.dirty = True
        return []

    def is_complete(self) -> bool:
        return not self.dirty


def _flood_max_engine(
    kernel: EngineKernel,
    topology: Topology,
    values: np.ndarray,
    rng: np.random.Generator,
    failure_model: FailureModel,
    oracle: LossOracle,
    metrics: MetricsCollector,
    max_rounds: int,
) -> FloodingResult:
    n = topology.n
    nodes = [FloodNode(i, float(values[i]), topology.neighbors(i)) for i in range(n)]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=np.ones(n, dtype=bool),
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=max_rounds,
        strict=False,
    )
    estimates = np.array([node.value for node in nodes], dtype=float)
    return FloodingResult(
        estimates=estimates,
        exact=float(values.max()),
        rounds=outcome.rounds,
        messages=metrics.total_messages,
        metrics=metrics,
    )
