"""Uniform gossip baselines (Kempe, Dobra & Gehrke, FOCS 2003).

These are the address-oblivious protocols DRR-gossip is compared against in
Table 1:

* **Push-sum** -- every node keeps a pair ``(s, w)`` initialised to
  ``(value, 1)``; in every round it keeps half and pushes half to a node
  chosen uniformly at random.  ``s/w`` converges to the global average at
  every node in ``O(log n + log 1/eps)`` rounds, so with all ``n`` nodes
  pushing every round the message complexity is ``Theta(n log n)``.
* **Push-max** -- every node pushes its current maximum to a random node
  every round; ``O(log n)`` rounds suffice for every node to hold the global
  maximum whp, again ``Theta(n log n)`` messages.

Both are *address-oblivious*: the decision to send never depends on the
partner's address, which is exactly the class the Section 5 lower bound says
cannot beat ``Omega(n log n)`` messages.

The ``backend`` argument selects the substrate kernel: the columnar batch
path (used by the Table 1 sweeps; scales to millions of nodes) or the
message-level engine (:class:`PushSumNode` / :class:`PushMaxNode`, used by
fidelity and failure-injection tests).  The per-round convergence history is
only tracked by the vectorized backend (it is an observer quantity, not part
of the protocol).

The columnar push-sum keeps each node's ``(s, w)`` as one ``complex128``
entry (``s`` the real part, ``w`` the imaginary part), so one
``np.add.at`` folds a round's pushes into both.  The fold gives the same
bits as two float folds: complex addition is two independent float64
additions, and ``add.at`` applies its updates in batch order, so each
component receives exactly the sequence of additions the engine's nodes
apply in arrival order.  Halving runs on the interleaved float64 view
(``x * 0.5`` is ``x / 2.0`` for every float; a complex product would turn
an infinite part into NaN).  When every node is alive the round halves and
subtracts on whole arrays instead of gathering through the alive ids, and
on a reliable, crash-free run it folds the whole batch instead of
compacting it by an all-True delivered mask.  Like :mod:`delivery
<repro.substrate.delivery>`'s fast paths, these change no accounting and
consume no RNG: they skip work whose outcome is known.

Each round's convergence error, ``max_i |s_i/w_i - exact| / scale``, is
taken from the two extremes ``lo`` and ``hi`` of ``s/w`` instead of a pass
per node.  IEEE rounding is monotone, so neither ``fl(x - exact)`` nor
``fl(x / scale)`` ever reorders two values, and ``fl(exact - lo)`` is
``-fl(lo - exact)``; hence ``max(fl(hi - exact), fl(exact - lo)) / scale``
has the same bits as the per-node maximum, and ``max(|lo|, |hi|)`` does when
``exact == 0``.  One ``np.divide`` and an ``fmin``/``fmax`` pair replace
seven full passes.  ``fmin``/``fmax`` skip NaN as ``nanmax`` does, so a
crashed node, which holds ``(0, 0)``, drops out without a gather of the
alive ids.  A non-finite extreme (``w == 0``, an infinite or NaN mass) or
a non-finite ``exact`` falls back to the per-node pass.

In a run of at least ``_OVERLAP_MIN_N`` nodes without churn, that divide
and pair run on a helper thread while the main thread draws the next
round's targets (NumPy releases the GIL in both); the main thread takes the
extremes before the halving writes ``s`` and ``w``.  The helper allocates
nothing, draws nothing and records no span, so the RNG stream, every
allocation and the fold stay on the main thread.  Its executor is created
and joined inside the call: no thread outlives :func:`push_sum`, and a
sweep drain forked afterwards inherits none.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..simulator.failures import ChurnOracle, FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on

__all__ = [
    "UniformGossipResult",
    "push_sum",
    "push_max",
    "PushSumNode",
    "PushMaxNode",
    "default_push_rounds",
]

#: Churn-free runs of at least this many nodes take each round's error
#: extremes on a helper thread (module docstring).  Measured on a 2-core
#: host: the hand-off costs ~0.1 ms a round, which is as much as it hides
#: at 2^17 nodes and more than it hides at 2^16.
_OVERLAP_MIN_N = 1 << 17


def default_push_rounds(n: int, epsilon: float | None = None) -> int:
    """``O(log n + log 1/eps)`` rounds; default target error ``1/n``."""
    epsilon = epsilon if epsilon is not None else 1.0 / max(2, n)
    return int(math.ceil(2.0 * math.log2(max(2, n)) + math.log2(1.0 / max(1e-300, epsilon)) + 4.0))


@dataclass
class UniformGossipResult:
    """Outcome of a uniform-gossip baseline run."""

    #: per-node estimate of the aggregate
    estimates: np.ndarray
    #: exact reference value over alive nodes
    exact: float
    rounds: int
    messages: int
    metrics: MetricsCollector
    #: per-round fraction of nodes holding the exact answer (push-max) or the
    #: per-round maximum relative error (push-sum); used by convergence plots
    convergence: list[float] = field(default_factory=list)

    @property
    def max_relative_error(self) -> float:
        if self.exact == 0.0:
            return float(np.nanmax(np.abs(self.estimates)))
        return float(np.nanmax(np.abs(self.estimates - self.exact) / abs(self.exact)))

    @property
    def all_correct(self) -> bool:
        return bool(np.all(self.estimates == self.exact))


# --------------------------------------------------------------------------- #
# push-sum
# --------------------------------------------------------------------------- #
def push_sum(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    rounds: int | None = None,
    epsilon: float | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    backend: str = "vectorized",
) -> UniformGossipResult:
    """Kempe et al. push-sum for the Average aggregate.

    The columnar backend stores ``(s, w)`` as one ``complex128`` array and
    folds each round's pushes with a single ``np.add.at``; both components
    see the same float64 additions in the same order as separate folds, so
    estimates match the engine's bit for bit.  Rounds in which every node is
    alive skip the alive-id gathers, and reliable, crash-free rounds skip
    the delivered-mask compaction: fast paths that change no accounting and
    consume no RNG.  ``convergence`` holds each round's maximum relative
    error ``|s/w - exact| / max(1e-300, |exact|)`` over alive nodes (the
    absolute error when ``exact == 0``), ignoring nodes with ``w == 0``.
    It is computed from the smallest and largest ``s/w``, which gives the
    per-node maximum bit for bit because rounding is monotone.  From
    ``_OVERLAP_MIN_N`` nodes up, a run without churn takes those extremes
    on a helper thread while the next round's targets are drawn; the thread
    is joined before this function returns or raises.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("values must be non-empty")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("push-sum")

    alive = ~failure_model.sample_crashes(n, rng)
    oracle = LossOracle.for_run(failure_model, rng)
    churn = ChurnOracle.for_run(failure_model, rng)
    total_rounds = rounds if rounds is not None else default_push_rounds(n, epsilon)

    return run_on(
        backend,
        vectorized=lambda kernel: _push_sum_vectorized(
            kernel, values, n, rng, total_rounds, oracle, alive, metrics, churn
        ),
        engine=lambda kernel: _push_sum_engine(
            kernel, values, n, rng, total_rounds, failure_model, oracle, alive, metrics, churn
        ),
    )


def _push_sum_vectorized(
    kernel: VectorizedKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    total_rounds: int,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    churn: ChurnOracle | None = None,
) -> UniformGossipResult:
    # (s, w) per node as one complex entry: one fold updates both.
    sw = np.empty(n, dtype=np.complex128)
    s, w = sw.real, sw.imag
    s[:] = np.where(alive, values, 0.0)
    w[:] = alive
    # Convergence is tracked against the membership at start; the result's
    # ``exact`` is recomputed over the final survivors under churn.
    exact = float(values[alive].mean())
    scale = max(1e-300, abs(exact))
    convergence: list[float] = []
    alive_idx = np.flatnonzero(alive)
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    dead_targets = churn is not None
    # Reliable and crash-free: deliver() returns an all-True mask, so the
    # fold can skip compacting by it.
    unmasked = oracle.reliable and alive_arg is None
    # Per-run buffers, rewritten every round.
    send_buffer = np.empty(n, dtype=np.complex128)
    est = np.empty(n)
    positive = np.empty(n, dtype=bool)
    # Round r's error extremes, taken on the helper during round r + 1's draw.
    # The executor starts its thread on the first submit, so a run below
    # the threshold starts none.
    overlap = churn is None and n >= _OVERLAP_MIN_N
    pending = None

    with ThreadPoolExecutor(1, "push-sum") as helper:
        for r in range(total_rounds):
            if churn is not None:
                died, joined = churn.step(r, alive)
                if joined.size:
                    # A joiner restarts from its own local value.
                    s[joined] = values[joined]
                    w[joined] = 1.0
                if died.size or joined.size:
                    alive_idx = np.flatnonzero(alive)
            metrics.record_round()
            senders = alive_idx
            everyone = senders.size == n
            targets = kernel.sample_uniform(rng, n, senders.size)
            if pending is not None:
                # Round r - 1's extremes; s and w are still that round's.
                extremes, pending = pending.result(), None
                convergence.append(_round_error(s, w, est, positive, None, exact, scale, extremes))
            send = send_buffer[: senders.size]
            # Halve on the float64 view: x * 0.5 == x / 2.0 for every float.
            halves = send.view(np.float64)
            if everyone:
                np.multiply(sw.view(np.float64), 0.5, out=halves)
                sw -= send
            else:
                # mode="clip" gathers straight into ``send``; the default
                # "raise" gathers into a temporary first.  Every alive id
                # is in range, so clipping never changes a value.
                np.take(sw, senders, out=send, mode="clip")
                halves *= 0.5
                sw[senders] -= send
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.PUSH, targets,
                senders=senders, round_index=r, alive=alive_arg, payload_words=2,
                dead_targets=dead_targets,
            )
            if unmasked:
                np.add.at(sw, targets, send)
            else:
                np.add.at(sw, targets[delivered], send[delivered])
            # Free this round's batch before the next round draws its own.
            del targets, delivered
            if overlap and r + 1 < total_rounds:
                pending = helper.submit(_extremes, s, w, est)
            else:
                # Under churn a dead node keeps its mass, so only the alive
                # ids count; a crashed node holds (0, 0) and reads as NaN.
                live = alive_idx if churn is not None and not everyone else None
                convergence.append(_round_error(s, w, est, positive, live, exact, scale))

    if churn is not None:
        exact = float(values[alive].mean())
    estimates = _estimate(s, w, np.empty(n), positive)
    estimates[~alive] = np.nan
    return UniformGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=total_rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        convergence=convergence,
    )


def _extremes(
    s: np.ndarray, w: np.ndarray, est: np.ndarray, live: np.ndarray | None = None
) -> tuple[float, float]:
    """Smallest and largest non-NaN ``s / w`` (over the ``live`` ids if given).

    Writes ``s / w`` into ``est``.  Allocates nothing when ``live`` is None,
    so it can run on the helper thread.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(s, w, out=est)
    if live is not None:
        est = est[live]
    return float(np.fmin.reduce(est)), float(np.fmax.reduce(est))


def _round_error(
    s: np.ndarray,
    w: np.ndarray,
    est: np.ndarray,
    positive: np.ndarray,
    live: np.ndarray | None,
    exact: float,
    scale: float,
    extremes: tuple[float, float] | None = None,
) -> float:
    """``_max_error(_estimate(s, w))`` over the ``live`` ids (every id if None).

    Taken from the ``extremes`` of ``s / w`` (computed here if not given);
    a non-finite extreme or ``exact`` falls back to the full pass.  Nodes
    with ``w == 0`` and ``s == 0`` read NaN here, and ``_estimate`` makes
    them NaN, so ``fmin``/``fmax`` skip them as ``nanmax`` does.
    """
    lo, hi = extremes if extremes is not None else _extremes(s, w, est, live)
    if math.isfinite(lo) and math.isfinite(hi) and math.isfinite(exact):
        if exact == 0:
            return max(abs(lo), abs(hi))
        return max(hi - exact, exact - lo) / scale
    _estimate(s, w, est, positive)
    return _max_error(est if live is None else est[live], exact, scale)


def _estimate(s: np.ndarray, w: np.ndarray, out: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """``s / w`` where ``w > 0``, else NaN, written into ``out``."""
    np.greater(w, 0.0, out=positive)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(s, w, out=out)
    if not positive.all():
        out[~positive] = np.nan
    return out


def _max_error(est: np.ndarray, exact: float, scale: float) -> float:
    """Largest ``|est - exact| / scale`` ignoring NaN (``|est|`` when ``exact == 0``).

    Overwrites ``est``.
    """
    if exact != 0:
        np.subtract(est, exact, out=est)
        np.abs(est, out=est)
        np.divide(est, scale, out=est)
    else:
        np.abs(est, out=est)
    return float(np.nanmax(est))


class PushSumNode(ProtocolNode):
    """Per-node push-sum state machine (Kempe et al., address-oblivious)."""

    def __init__(self, node_id: int, value: float, rounds: int) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.s = float(value)
        self.w = 1.0
        self.rounds = rounds
        self.rounds_done = 0

    def on_activated(self, round_index: int) -> None:
        # A joiner restarts from its own local value (it cannot resume the
        # state it lost when it died).
        self.s = self.value
        self.w = 1.0

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        # Gate on the round index, not rounds attended: a node revived by
        # churn does not get extra sending rounds.  Without churn both gates
        # are identical (an alive node attends every round).
        if ctx.round_index >= self.rounds:
            return []
        self.rounds_done += 1
        target = ctx.random_node()
        send_s, send_w = self.s / 2.0, self.w / 2.0
        self.s -= send_s
        self.w -= send_w
        return [
            Send(
                recipient=target,
                kind=MessageKind.PUSH,
                payload={"s": send_s, "w": send_w},
                payload_words=2,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.PUSH.value:
                self.s += float(message.get("s"))
                self.w += float(message.get("w"))
        return []

    def is_complete(self) -> bool:
        return self.rounds_done >= self.rounds

    def result(self) -> float:
        return self.s / self.w if self.w > 0 else float("nan")


def _push_sum_engine(
    kernel: EngineKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    total_rounds: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    churn: ChurnOracle | None = None,
) -> UniformGossipResult:
    nodes = [PushSumNode(i, float(values[i]), total_rounds) for i in range(n)]
    # Under churn a revived node may have attended fewer than ``rounds``
    # rounds forever, so completion is by round count, exactly like the
    # columnar loop.
    stop_condition = (
        (lambda current_nodes, round_index: round_index >= total_rounds)
        if churn is not None
        else None
    )
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        churn_oracle=churn,
        max_substeps=2,
        max_rounds=total_rounds + 4,
        stop_condition=stop_condition,
    )
    final_alive = outcome.final_alive if outcome.final_alive is not None else alive
    estimates = np.array([node.result() for node in nodes], dtype=float)
    estimates[~final_alive] = np.nan
    exact = float(values[final_alive].mean())
    return UniformGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=outcome.rounds,
        messages=metrics.total_messages,
        metrics=metrics,
    )


# --------------------------------------------------------------------------- #
# push-max
# --------------------------------------------------------------------------- #
def push_max(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    rounds: int | None = None,
    failure_model: FailureModel | None = None,
    metrics: MetricsCollector | None = None,
    stop_when_converged: bool = False,
    backend: str = "vectorized",
) -> UniformGossipResult:
    """Address-oblivious push-max: every node pushes its running maximum.

    ``stop_when_converged`` is used by the lower-bound experiment, which
    wants the number of messages spent until every node knows the maximum
    (an oracle stopping rule that only *under*-counts what a real protocol
    would need, making the measured lower bound conservative).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("values must be non-empty")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("push-max")

    alive = ~failure_model.sample_crashes(n, rng)
    oracle = LossOracle.for_run(failure_model, rng)
    churn = ChurnOracle.for_run(failure_model, rng)
    if churn is not None and stop_when_converged:
        raise ValueError(
            "stop_when_converged is a static-membership oracle stopping rule; "
            "it is not defined under mid-run churn"
        )
    total_rounds = rounds if rounds is not None else int(math.ceil(2.0 * math.log2(max(2, n)) + 6))

    return run_on(
        backend,
        vectorized=lambda kernel: _push_max_vectorized(
            kernel, values, n, rng, total_rounds, oracle, alive, metrics, stop_when_converged, churn
        ),
        engine=lambda kernel: _push_max_engine(
            kernel, values, n, rng, total_rounds, failure_model, oracle, alive, metrics, stop_when_converged, churn
        ),
    )


def _push_max_vectorized(
    kernel: VectorizedKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    total_rounds: int,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    stop_when_converged: bool,
    churn: ChurnOracle | None = None,
) -> UniformGossipResult:
    current = np.where(alive, values, -np.inf).astype(float)
    exact = float(values[alive].max())
    alive_idx = np.flatnonzero(alive)
    alive_arg = alive if churn is not None else (None if alive.all() else alive)
    dead_targets = churn is not None
    convergence: list[float] = []

    executed = 0
    for r in range(total_rounds):
        if churn is not None:
            died, joined = churn.step(r, alive)
            if joined.size:
                current[joined] = values[joined]
            if died.size or joined.size:
                alive_idx = np.flatnonzero(alive)
        metrics.record_round()
        executed += 1
        targets = kernel.sample_uniform(rng, n, alive_idx.size)
        delivered = kernel.deliver(
            metrics, oracle, MessageKind.PUSH, targets,
            senders=alive_idx, round_index=r, alive=alive_arg,
            dead_targets=dead_targets,
        )
        np.maximum.at(current, targets[delivered], current[alive_idx][delivered])
        informed = float(np.mean(current[alive] >= exact))
        convergence.append(informed)
        if stop_when_converged and informed >= 1.0:
            break

    if churn is not None:
        exact = float(values[alive].max())
    estimates = current.copy()
    estimates[~alive] = np.nan
    return UniformGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=executed,
        messages=metrics.total_messages,
        metrics=metrics,
        convergence=convergence,
    )


class PushMaxNode(ProtocolNode):
    """Per-node push-max state machine (address-oblivious)."""

    def __init__(self, node_id: int, value: float, rounds: int) -> None:
        super().__init__(node_id)
        self.initial = float(value)
        self.value = float(value)
        self.rounds = rounds
        self.rounds_done = 0

    def on_activated(self, round_index: int) -> None:
        # A joiner restarts from its own value; whatever maximum it had
        # learned died with it.
        self.value = self.initial

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if ctx.round_index >= self.rounds:
            return []
        self.rounds_done += 1
        return [
            Send(recipient=ctx.random_node(), kind=MessageKind.PUSH, payload={"value": self.value})
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.PUSH.value:
                self.value = max(self.value, float(message.get("value")))
        return []

    def is_complete(self) -> bool:
        return self.rounds_done >= self.rounds


def _push_max_engine(
    kernel: EngineKernel,
    values: np.ndarray,
    n: int,
    rng: np.random.Generator,
    total_rounds: int,
    failure_model: FailureModel,
    oracle: LossOracle,
    alive: np.ndarray,
    metrics: MetricsCollector,
    stop_when_converged: bool,
    churn: ChurnOracle | None = None,
) -> UniformGossipResult:
    exact = float(values[alive].max())
    nodes = [PushMaxNode(i, float(values[i]), total_rounds) for i in range(n)]

    stop_condition = None
    if stop_when_converged:
        alive_idx = np.flatnonzero(alive)

        def stop_condition(current_nodes, round_index):  # noqa: ANN001 - engine signature
            return all(current_nodes[i].value >= exact for i in alive_idx)

    elif churn is not None:
        stop_condition = lambda current_nodes, round_index: round_index >= total_rounds  # noqa: E731

    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        churn_oracle=churn,
        max_substeps=2,
        max_rounds=total_rounds + 4,
        stop_condition=stop_condition,
    )
    final_alive = outcome.final_alive if outcome.final_alive is not None else alive
    if churn is not None:
        exact = float(values[final_alive].max())
    estimates = np.array([node.value for node in nodes], dtype=float)
    estimates[~final_alive] = np.nan
    return UniformGossipResult(
        estimates=estimates,
        exact=exact,
        rounds=outcome.rounds,
        messages=metrics.total_messages,
        metrics=metrics,
    )
