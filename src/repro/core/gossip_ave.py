"""Phase III -- Gossip-ave, the non-uniform push-sum over the roots (Algorithm 6).

Every root starts with the pair ``(s, g)`` produced by Convergecast-sum: the
local sum of the values in its tree and the tree size.  In every round each
root halves its pair, keeps one half, and pushes the other half to a node
chosen uniformly at random from the *whole* network; non-roots forward the
push to their own root.  A root's estimate of the global average is always
``s / g``.

Because pushes are addressed uniformly over all ``n`` nodes but land (after
forwarding) on roots, a root is selected with probability proportional to its
*tree size* -- the non-uniform selection the paper analyses.  Theorem 7 shows
that the root of the largest tree reaches relative error ``<= 2 / n^(alpha-1)``
within ``O(log n)`` rounds; the other roots then learn the answer through
Data-spread (Algorithm 5), not through their own convergence.

Mass conservation: with a reliable network the invariant
``sum_i s_i = S`` and ``sum_i g_i = n_alive`` holds in every round; lost
messages remove mass, exactly like the paper's failure model (the factor
``(1 - delta)`` inside ``P_i`` of Lemma 8).

Backends: the ``backend`` argument selects the columnar kernel (default) or
the message-level engine, which runs :class:`GossipAveRootNode` machines on
the roots and the shared :class:`~repro.core.gossip_max.RootForwarderNode`
on everyone else.  Both consume the RNG identically and fold a round's
pushes in the same order, so their estimates are bit-identical.
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
from ..substrate import EngineKernel, RelayTable, VectorizedKernel, run_on
from .gossip_max import RootForwarderNode, check_root_of

__all__ = ["GossipAveResult", "GossipAveRootNode", "default_ave_rounds", "run_gossip_ave"]


def default_ave_rounds(n: int, epsilon: float | None = None, loss_probability: float = 0.0) -> int:
    """Round budget ``O(log m + log(1/epsilon))`` of Theorem 7.

    The default target error is ``epsilon = 1/n`` (i.e. ``alpha = 1``), which
    is far below what any downstream consumer of Average needs and still only
    costs ``~3 log2 n`` rounds.
    """
    epsilon = epsilon if epsilon is not None else 1.0 / max(2, n)
    rho = 1.0 - (1.0 - loss_probability) ** 2
    base = math.log2(max(2, n)) + math.log2(1.0 / max(1e-300, epsilon)) + 8.0
    return int(math.ceil(base / max(1e-9, 1.0 - rho)))


@dataclass
class GossipAveResult:
    """Outcome of Gossip-ave over the roots.

    Attributes
    ----------
    estimates:
        Mapping root id -> that root's final ``s/g`` estimate.
    sums / weights:
        Final ``s`` and ``g`` values per root id (useful to derive Sum and
        Count estimates: see :mod:`repro.core.drr_gossip`).
    history:
        Per-round estimate of the traced root (empty when not requested);
        the E6 experiment reads its convergence round off it.
    rounds:
        Rounds executed.
    """

    estimates: dict[int, float]
    sums: dict[int, float]
    weights: dict[int, float]
    rounds: int
    metrics: MetricsCollector
    traced_root: int | None = None
    history: list[float] = field(default_factory=list)

    def estimate_at(self, root: int) -> float:
        return self.estimates[int(root)]


def run_gossip_ave(
    roots: np.ndarray,
    local_sums: np.ndarray,
    local_weights: np.ndarray,
    root_of: np.ndarray,
    n: int,
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    rounds: int | None = None,
    epsilon: float | None = None,
    phase_name: str = "gossip-ave",
    alive: np.ndarray | None = None,
    trace_root: int | None = None,
    churn: ChurnOracle | None = None,
    churn_base_round: int = 0,
    backend: str = "vectorized",
) -> GossipAveResult:
    """Run Gossip-ave (Algorithm 6) over the forest's roots.

    Parameters
    ----------
    roots, local_sums, local_weights:
        Root ids and their Convergecast-sum output ``(s, g)``, aligned.
    root_of:
        Forwarding table over all ``n`` nodes (-1 when the node does not know
        its root; pushes landing there are dropped).
    rounds:
        Number of gossip rounds; ``None`` selects
        :func:`default_ave_rounds` for the requested ``epsilon``.
    trace_root:
        If given, the estimate of this root is recorded after every round
        it is alive for (plus the terminal estimate under churn).  It must
        be one of ``roots``.
    churn:
        Mid-run churn oracle (``None`` auto-derives one from
        ``failure_model``); crash-only, like :func:`run_gossip_max` -- a
        revived root would re-inject mass the invariant already counted.
        ``churn_base_round`` offsets this procedure's rounds in the oracle's
        identity space.  The ``alive`` mask is evolved in place.
    backend:
        Substrate backend: ``"vectorized"`` (default) or ``"engine"``.
    """
    roots = np.asarray(roots, dtype=np.int64)
    local_sums = np.asarray(local_sums, dtype=float)
    local_weights = np.asarray(local_weights, dtype=float)
    root_of = np.asarray(root_of, dtype=np.int64)
    if roots.size == 0:
        raise ValueError("gossip-ave needs at least one root")
    if local_sums.shape != roots.shape or local_weights.shape != roots.shape:
        raise ValueError("local_sums and local_weights must align with roots")
    check_root_of(root_of, n)
    if trace_root is not None and not (roots == trace_root).any():
        raise ValueError(f"trace_root {trace_root} is not one of the roots")
    # Weights are tree sizes when computing Average, and an indicator vector
    # (1 at one designated root) when the pipeline derives Sum or Count, so
    # zeros are allowed -- but mass must exist somewhere and never be negative.
    if (local_weights < 0).any():
        raise ValueError("root weights must be non-negative")
    if float(local_weights.sum()) <= 0.0:
        raise ValueError("at least one root must start with positive weight")

    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector()
    metrics.begin_phase(phase_name)
    if alive is None:
        alive = np.ones(n, dtype=bool)
    oracle = LossOracle.for_run(failure_model, rng)
    if churn is None:
        churn = ChurnOracle.for_run(failure_model, rng)
    if churn is not None and churn.has_joins:
        raise ValueError(
            "gossip-ave is crash-only under churn: a revived root would "
            "re-inject mass the conservation invariant already counted "
            "(set join_rate=0 and use no join schedule events, or run the "
            "epoch-gossip-ave protocol instead)"
        )

    total_rounds = (
        rounds
        if rounds is not None
        else default_ave_rounds(n, epsilon, failure_model.loss_probability)
    )

    return run_on(
        backend,
        vectorized=lambda kernel: _gossip_ave_vectorized(
            kernel, roots, local_sums, local_weights, root_of, n, oracle,
            rng, metrics, total_rounds, alive, trace_root, churn, churn_base_round,
        ),
        engine=lambda kernel: _gossip_ave_engine(
            kernel, roots, local_sums, local_weights, root_of, n, failure_model,
            oracle, rng, metrics, total_rounds, alive, trace_root, churn, churn_base_round,
        ),
    )


# --------------------------------------------------------------------------- #
# vectorized (columnar) backend
# --------------------------------------------------------------------------- #
def _gossip_ave_vectorized(
    kernel: VectorizedKernel,
    roots: np.ndarray,
    local_sums: np.ndarray,
    local_weights: np.ndarray,
    root_of: np.ndarray,
    n: int,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
    total_rounds: int,
    alive: np.ndarray,
    trace_root: int | None,
    churn: ChurnOracle | None,
    churn_base_round: int,
) -> GossipAveResult:
    table = RelayTable(roots, root_of, n)
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    dead_targets = churn is not None

    s = local_sums.astype(np.float64)
    g = local_weights.astype(np.float64)
    history: list[float] = []
    trace_pos = int(table.landing[trace_root]) if trace_root is not None else None

    def _trace_estimate() -> float:
        return float(s[trace_pos] / g[trace_pos]) if g[trace_pos] > 0 else float("nan")

    for r in range(total_rounds):
        if churn is not None:
            churn.step(churn_base_round + r, alive)
            send_pos = np.flatnonzero(alive[roots])
        else:
            send_pos = None
        metrics.record_round()
        # The engine's traced node snapshots its estimate at the start of
        # each round it is alive for; recording here (rather than at the
        # bottom of the loop) reproduces that sequence exactly, dead gaps
        # included, and is identical without churn.
        if trace_pos is not None and r > 0 and (churn is None or alive[trace_root]):
            history.append(_trace_estimate())

        senders = roots if send_pos is None else roots[send_pos]
        targets = kernel.sample_uniform(rng, n, senders.size)

        # Each live root keeps half and ships half, whether or not the
        # shipment survives (lost mass is lost -- that is the paper's
        # model).  Dead roots' mass freezes where it fell.
        if send_pos is None:
            send_s = s / 2.0
            send_g = g / 2.0
            s -= send_s
            g -= send_g
        else:
            send_s = s[send_pos] / 2.0
            send_g = g[send_pos] / 2.0
            s[send_pos] -= send_s
            g[send_pos] -= send_g

        receiver = kernel.relay_to_roots(
            metrics, oracle, targets, senders=senders, round_index=r,
            kind=MessageKind.GOSSIP, table=table,
            alive=alive_arg, payload_words=2, dead_targets=dead_targets,
        )
        kernel.fold_pushes(receiver, send_s, send_g, s, g)

    if trace_pos is not None and total_rounds > 0:
        history.append(_trace_estimate())

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g > 0, s / g, np.float64(np.nan))
    root_ids = roots.tolist()
    estimates = dict(zip(root_ids, ratio.tolist()))
    sums = dict(zip(root_ids, s.tolist()))
    weights = dict(zip(root_ids, g.tolist()))
    return GossipAveResult(
        estimates=estimates,
        sums=sums,
        weights=weights,
        rounds=total_rounds,
        metrics=metrics,
        traced_root=trace_root,
        history=history,
    )


# --------------------------------------------------------------------------- #
# engine (message-level) backend
# --------------------------------------------------------------------------- #
class GossipAveRootNode(ProtocolNode):
    """A root in Gossip-ave: halves its ``(s, g)`` pair and pushes one half.

    Each push carries its pusher's id.  A round's arrivals are buffered and
    their sum, taken in pusher-id order, is added to ``(s, g)`` before the
    state is next read: the summation the columnar fold's ``bincount``
    performs over a round's batch, so both backends agree bit for bit.
    """

    def __init__(self, node_id: int, s: float, g: float, rounds: int, trace: bool = False) -> None:
        super().__init__(node_id)
        self.s = float(s)
        self.g = float(g)
        self.rounds = int(rounds)
        self.rounds_done = 0
        self.trace = trace
        self.history: list[float] = []
        #: (pusher id, s, g) of the pushes that arrived since the last fold
        self._arrivals: list[tuple[int, float, float]] = []

    def _fold_arrivals(self) -> None:
        if not self._arrivals:
            return
        part_s = part_g = 0.0
        for _, s, g in sorted(self._arrivals):
            part_s += s
            part_g += g
        self.s += part_s
        self.g += part_g
        self._arrivals.clear()

    def _estimate(self) -> float:
        return self.s / self.g if self.g > 0 else float("nan")

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self._fold_arrivals()
        r = ctx.round_index
        if r >= self.rounds:
            return []
        if self.trace and r > 0:
            # State observed at the start of round r is the estimate after
            # round r - 1 (the quantity the vectorized history records).
            self.history.append(self._estimate())
        self.rounds_done += 1
        send_s, send_g = self.s / 2.0, self.g / 2.0
        self.s -= send_s
        self.g -= send_g
        return [
            Send(
                recipient=ctx.random_node(),
                kind=MessageKind.GOSSIP,
                payload={"s": send_s, "w": send_g, "pusher": self.node_id},
                payload_words=2,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            inner = message.get("inner", message.kind)
            if inner == MessageKind.GOSSIP.value:
                self._arrivals.append(
                    (message.get("pusher"), float(message.get("s")), float(message.get("w")))
                )
        return []

    def is_complete(self) -> bool:
        return self.rounds_done >= self.rounds

    def result(self) -> float:
        self._fold_arrivals()
        return self._estimate()


def _gossip_ave_engine(
    kernel: EngineKernel,
    roots: np.ndarray,
    local_sums: np.ndarray,
    local_weights: np.ndarray,
    root_of: np.ndarray,
    n: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
    total_rounds: int,
    alive: np.ndarray,
    trace_root: int | None,
    churn: ChurnOracle | None,
    churn_base_round: int,
) -> GossipAveResult:
    is_root = np.zeros(n, dtype=bool)
    is_root[roots] = True
    by_root = {int(r): (float(sv), float(wv)) for r, sv, wv in zip(roots, local_sums, local_weights)}
    nodes: list[ProtocolNode] = [
        GossipAveRootNode(i, *by_root[i], rounds=total_rounds, trace=(trace_root == i))
        if is_root[i]
        else RootForwarderNode(i, int(root_of[i]))
        for i in range(n)
    ]
    # Three sub-steps: push, forward; nothing answers back within the round.
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        churn_oracle=churn,
        churn_base_round=churn_base_round,
        max_substeps=3,
        max_rounds=total_rounds + 4,
        # Pin the round count under churn: were every root to die, the
        # surviving forwarders are trivially complete and the engine would
        # otherwise stop short of the vectorized loop's fixed budget.
        stop_condition=(
            (lambda nodes, r: r >= total_rounds) if churn is not None else None
        ),
    )
    if outcome.final_alive is not None:
        alive[:] = outcome.final_alive

    estimates: dict[int, float] = {}
    sums: dict[int, float] = {}
    weights: dict[int, float] = {}
    history: list[float] = []
    for root in roots:
        node = nodes[int(root)]
        estimates[int(root)] = float(node.result())
        sums[int(root)] = float(node.s)
        weights[int(root)] = float(node.g)
        if trace_root is not None and int(root) == int(trace_root):
            # The in-round snapshots cover rounds 0 .. total - 2; the final
            # round's estimate is the node's terminal state.
            history = list(node.history)
            if total_rounds > 0:
                history.append(float(node.result()))
    return GossipAveResult(
        estimates=estimates,
        sums=sums,
        weights=weights,
        rounds=total_rounds,
        metrics=metrics,
        traced_root=trace_root,
        history=history,
    )
