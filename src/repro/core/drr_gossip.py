"""The complete DRR-gossip pipelines (Algorithms 7 and 8) and their reductions.

This module glues the three phases together:

* :func:`drr_gossip_max` / :func:`drr_gossip_min` -- Algorithm 7: DRR,
  Convergecast-max, root-address Broadcast, Gossip-max, final Broadcast.
* :func:`drr_gossip_average` -- Algorithm 8: DRR, Convergecast-sum,
  root-address Broadcast, Gossip-max on tree sizes (to identify the root of
  the largest tree), Gossip-ave, Data-spread from the largest root, final
  Broadcast.
* :func:`drr_gossip_sum` / :func:`drr_gossip_count` -- Sum and Count through
  the same machinery: after the largest-tree root ``z`` is identified it runs
  push-sum with weight 1 at ``z`` and 0 elsewhere, so ``s/w`` converges to
  the global Sum (with ``s`` = local sums) or Count (``s`` = tree sizes).
* :func:`drr_gossip_rank` -- the rank of a query value as the Sum of the
  indicator values ``v_i <= query``, rounded to the nearest integer.

The result object reports per-node estimates, the exact reference value, and
the full per-phase round/message breakdown (the quantities Table 1 and the
Section 3.5 accounting are about).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..simulator.failures import ChurnOracle, FailureModel
from ..simulator.metrics import MetricsCollector
from ..simulator.rng import make_rng
from ..substrate import normalize_backend
from .aggregates import Aggregate, exact_aggregate
from .convergecast import run_broadcast, run_convergecast
from .drr import DRRResult, run_drr
from .data_spread import run_data_spread
from .gossip_ave import run_gossip_ave
from .gossip_max import run_gossip_max

__all__ = [
    "DRRGossipConfig",
    "DRRGossipResult",
    "broadcast_root_addresses",
    "drr_gossip",
    "drr_gossip_max",
    "drr_gossip_min",
    "drr_gossip_average",
    "drr_gossip_sum",
    "drr_gossip_count",
    "drr_gossip_rank",
]


@dataclass(frozen=True)
class DRRGossipConfig:
    """Tunables of a DRR-gossip run.

    All ``None`` round budgets fall back to the defaults of the respective
    phase modules (the paper's asymptotic budgets with practical constants).
    """

    #: probe budget of Phase I; ``None`` = the paper's ``log2(n) - 1``.
    probe_budget: int | None = None
    #: rounds of the Gossip-max gossip procedure.
    gossip_rounds: int | None = None
    #: rounds of the Gossip-max sampling procedure.
    sampling_rounds: int | None = None
    #: rounds of Gossip-ave.
    ave_rounds: int | None = None
    #: target relative error of Gossip-ave.  ``None`` = 1/n for Average and
    #: Sum, and n^-2 for Count and Rank, whose rounded answer is exact only
    #: below a relative error of 1/(2n).
    epsilon: float | None = None
    #: message loss / initial crash model.
    failure_model: FailureModel = field(default_factory=FailureModel)
    #: substrate backend executing every phase: ``"vectorized"`` (columnar
    #: NumPy, the production hot path) or ``"engine"`` (message-level
    #: simulation, the fidelity reference).
    backend: str = "vectorized"

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", normalize_backend(self.backend))

    def with_failures(self, failure_model: FailureModel) -> "DRRGossipConfig":
        return dataclasses.replace(self, failure_model=failure_model)


@dataclass
class DRRGossipResult:
    """Outcome of one DRR-gossip execution.

    Attributes
    ----------
    aggregate:
        Which aggregate was computed.
    estimates:
        Per-node estimate; NaN for nodes that never learned the answer
        (crashed, or cut off by lost broadcast messages).
    learned:
        Boolean mask of nodes that hold an estimate.
    exact:
        The centralised reference value over the alive nodes' inputs.
    rounds / messages:
        Totals over all phases (``metrics`` has the breakdown).
    drr:
        The Phase I result (forest, probes, ...), exposed because most
        experiments also want the forest statistics.
    """

    aggregate: Aggregate
    estimates: np.ndarray
    learned: np.ndarray
    exact: float
    rounds: int
    messages: int
    metrics: MetricsCollector
    drr: DRRResult
    root_estimates: dict[int, float]
    n: int

    @property
    def max_relative_error(self) -> float:
        """Worst relative error over nodes that learned an estimate."""
        if not self.learned.any():
            return float("inf")
        learned_estimates = self.estimates[self.learned]
        if self.exact == 0.0:
            return float(np.max(np.abs(learned_estimates)))
        return float(np.max(np.abs(learned_estimates - self.exact) / abs(self.exact)))

    @property
    def all_correct(self) -> bool:
        """True when every node that learned an estimate learned the exact value."""
        return bool(self.learned.any()) and bool(
            np.all(self.estimates[self.learned] == self.exact)
        )

    @property
    def coverage(self) -> float:
        """Fraction of alive nodes that hold an estimate."""
        alive = self.drr.forest.alive
        alive = alive if alive is not None else np.ones(self.n, dtype=bool)
        return float(self.learned[alive].mean())

    def messages_by_phase(self) -> dict[str, int]:
        return self.metrics.messages_by_phase()

    def rounds_by_phase(self) -> dict[str, int]:
        return self.metrics.rounds_by_phase()


# --------------------------------------------------------------------------- #
# shared phase helpers
# --------------------------------------------------------------------------- #
def _run_phase_one(
    n: int,
    rng: np.random.Generator,
    config: DRRGossipConfig,
    metrics: MetricsCollector,
) -> DRRResult:
    return run_drr(
        n,
        rng=rng,
        probe_budget=config.probe_budget,
        failure_model=config.failure_model,
        metrics=metrics,
        backend=config.backend,
    )


def _alive_mask(drr: DRRResult) -> np.ndarray:
    alive = drr.forest.alive
    return alive if alive is not None else np.ones(drr.forest.n, dtype=bool)


def _pipeline_churn(
    config: DRRGossipConfig, rng: np.random.Generator
) -> ChurnOracle | None:
    """Derive the pipeline's churn oracle; the DRR pipelines are crash-only.

    Churn strikes during the long-running Phase III gossip procedures; the
    tree-building phases (DRR, Convergecast, the Broadcasts) are treated as
    instantaneous, exactly like the initial-crash model.  A joined node
    cannot re-enter a tree whose construction already finished, so join
    events are rejected up front.  Deriving the oracle here (zero variates
    consumed) keys it to the run, not to any single procedure.
    """
    churn = ChurnOracle.for_run(config.failure_model, rng)
    if churn is not None and churn.has_joins:
        raise ValueError(
            "drr-gossip pipelines are crash-only under churn: a node cannot "
            "rejoin a tree whose construction already finished (set "
            "join_rate=0 and use no join schedule events; the "
            "epoch-gossip-ave protocol supports joins)"
        )
    return churn


def _alive_roots(drr: DRRResult) -> np.ndarray:
    roots = drr.forest.roots
    return roots[_alive_mask(drr)[roots]]


def broadcast_root_addresses(
    drr: DRRResult,
    roots: np.ndarray,
    rng: np.random.Generator,
    config: DRRGossipConfig,
    metrics: MetricsCollector,
) -> np.ndarray:
    """Phase II broadcast of each root's address; returns the forwarding table.

    The returned array maps every node to the root whose address it learned
    (``-1`` for nodes the broadcast never reached).  Exposed publicly because
    experiment drivers that assemble custom pipelines (Gossip-max / Gossip-ave
    convergence studies) need the same forwarding table the full DRR-gossip
    pipelines build internally.
    """
    roots = np.asarray(roots, dtype=np.int64)
    payload = dict(zip(roots.tolist(), roots.astype(float).tolist()))
    outcome = run_broadcast(
        drr,
        payload,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        phase_name="broadcast-root",
        backend=config.backend,
    )
    root_of = np.full(drr.forest.n, -1, dtype=np.int64)
    received = outcome.received
    root_of[received] = outcome.payload[received].astype(np.int64)
    return root_of


def _broadcast_estimates(
    drr: DRRResult,
    root_estimates: dict[int, float],
    rng: np.random.Generator,
    config: DRRGossipConfig,
    metrics: MetricsCollector,
) -> tuple[np.ndarray, np.ndarray]:
    """Final Phase: roots broadcast the global aggregate to their trees."""
    outcome = run_broadcast(
        drr,
        root_estimates,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        phase_name="broadcast-final",
        backend=config.backend,
    )
    return outcome.payload, outcome.received


def _convergecast(
    drr: DRRResult,
    values: np.ndarray,
    op: str,
    rng: np.random.Generator,
    config: DRRGossipConfig,
    metrics: MetricsCollector,
):
    return run_convergecast(
        drr,
        values,
        op=op,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        backend=config.backend,
    )


def _finalise(
    aggregate: Aggregate,
    drr: DRRResult,
    root_estimates: dict[int, float],
    payload: np.ndarray,
    received: np.ndarray,
    values: np.ndarray,
    metrics: MetricsCollector,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    exact_value: float | None = None,
) -> DRRGossipResult:
    alive = _alive_mask(drr)
    estimates = payload.copy()
    learned = received.copy()
    estimates[~alive] = np.nan
    learned[~alive] = False
    if transform is not None:
        finite = np.isfinite(estimates)
        estimates[finite] = transform(estimates[finite])
        root_estimates = {r: float(transform(np.array([v]))[0]) for r, v in root_estimates.items()}
    exact = (
        exact_value
        if exact_value is not None
        else exact_aggregate(aggregate, values[alive])
    )
    return DRRGossipResult(
        aggregate=aggregate,
        estimates=estimates,
        learned=learned,
        exact=float(exact),
        rounds=metrics.total_rounds,
        messages=metrics.total_messages,
        metrics=metrics,
        drr=drr,
        root_estimates=root_estimates,
        n=drr.forest.n,
    )


# --------------------------------------------------------------------------- #
# Algorithm 7: DRR-gossip-max (and min by negation)
# --------------------------------------------------------------------------- #
def drr_gossip_max(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the global Max at every node (Algorithm 7)."""
    return _extremum_pipeline(values, Aggregate.MAX, rng, config, negate=False)


def drr_gossip_min(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the global Min at every node (Algorithm 7 on negated values)."""
    return _extremum_pipeline(values, Aggregate.MIN, rng, config, negate=True)


def _extremum_pipeline(
    values: np.ndarray,
    aggregate: Aggregate,
    rng: np.random.Generator | int | None,
    config: DRRGossipConfig | None,
    negate: bool,
) -> DRRGossipResult:
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("values must be non-empty")
    rng = make_rng(rng)
    config = config or DRRGossipConfig()
    metrics = MetricsCollector()
    churn = _pipeline_churn(config, rng)
    work_values = -values if negate else values

    drr = _run_phase_one(n, rng, config, metrics)
    roots = _alive_roots(drr)
    cov = _convergecast(drr, work_values, "max", rng, config, metrics)
    root_of = broadcast_root_addresses(drr, roots, rng, config, metrics)
    gossip = run_gossip_max(
        roots=roots,
        root_values=cov.value_vector(roots),
        root_of=root_of,
        n=n,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        gossip_rounds=config.gossip_rounds,
        sampling_rounds=config.sampling_rounds,
        alive=_alive_mask(drr),
        churn=churn,
        backend=config.backend,
    )
    payload, received = _broadcast_estimates(drr, gossip.estimates, rng, config, metrics)
    transform = (lambda x: -x) if negate else None
    return _finalise(
        aggregate, drr, gossip.estimates, payload, received, values, metrics, transform
    )


# --------------------------------------------------------------------------- #
# Algorithm 8: DRR-gossip-ave, plus Sum / Count / Rank reductions
# --------------------------------------------------------------------------- #
def _identify_largest_root(
    drr: DRRResult,
    roots: np.ndarray,
    tree_sizes: np.ndarray,
    root_of: np.ndarray,
    n: int,
    rng: np.random.Generator,
    config: DRRGossipConfig,
    metrics: MetricsCollector,
    churn: ChurnOracle | None = None,
    churn_base_round: int = 0,
) -> tuple[int, int]:
    """Gossip-max on (tree size, root id) so exactly one root learns it is largest.

    The paper runs Gossip-max on the tree sizes; because sizes are integers,
    ties are possible, so we gossip the pair ``(size, root id)`` encoded as
    ``size * (n + 1) + root id`` which is exact in double precision for every
    network size the simulator can hold and makes the winner unique.

    Returns ``(winner, rounds_consumed)``; the caller advances the churn
    clock by the second element.
    """
    encoded = tree_sizes * (n + 1) + roots
    outcome = run_gossip_max(
        roots=roots,
        root_values=encoded.astype(float),
        root_of=root_of,
        n=n,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        gossip_rounds=config.gossip_rounds,
        sampling_rounds=config.sampling_rounds,
        phase_name="gossip-max-sizes",
        alive=_alive_mask(drr),
        churn=churn,
        churn_base_round=churn_base_round,
        backend=config.backend,
    )
    # Every root compares the gossiped maximum against its own encoding; the
    # root whose own encoding equals the consensus knows it is the largest.
    consensus = max(outcome.estimates.values())
    winner = int(round(consensus)) % (n + 1)
    if not (roots == winner).any():
        # Extremely lossy runs can garble the consensus; fall back to the
        # true largest tree so the pipeline still returns an answer (the
        # error shows up in the accuracy metrics, not as a crash).
        winner = int(roots[int(np.argmax(encoded))])
    return winner, outcome.gossip_rounds + outcome.sampling_rounds


def _pushsum_pipeline(
    values: np.ndarray,
    aggregate: Aggregate,
    rng: np.random.Generator | int | None,
    config: DRRGossipConfig | None,
    query: float | None = None,
) -> DRRGossipResult:
    """Shared implementation of Average, Sum, Count, and Rank."""
    raw_values = np.asarray(values, dtype=float)
    n = raw_values.size
    if n == 0:
        raise ValueError("values must be non-empty")
    rng = make_rng(rng)
    config = config or DRRGossipConfig()
    metrics = MetricsCollector()
    churn = _pipeline_churn(config, rng)

    if aggregate == Aggregate.RANK:
        if query is None:
            # The conventional default query: the input median, a pure
            # function of the values, so a run stays reproducible without it.
            query = float(np.median(raw_values))
        work_values = (raw_values <= query).astype(float)
    elif aggregate == Aggregate.COUNT:
        work_values = np.ones(n, dtype=float)
    else:
        work_values = raw_values

    drr = _run_phase_one(n, rng, config, metrics)
    alive = _alive_mask(drr)
    roots = _alive_roots(drr)

    cov = _convergecast(drr, work_values, "sum", rng, config, metrics)
    local_sums = cov.value_vector(roots)
    tree_sizes = cov.weight_vector(roots)
    root_of = broadcast_root_addresses(drr, roots, rng, config, metrics)

    # Phase III runs under one sequential churn clock: gossip-max-sizes,
    # then gossip-ave, then data-spread each advance `churn_base` by the
    # rounds they consumed, so a node's fate at global churn round t is
    # independent of how the budget splits across the procedures.
    largest, churn_base = _identify_largest_root(
        drr, roots, tree_sizes, root_of, n, rng, config, metrics,
        churn=churn, churn_base_round=0,
    )

    if aggregate == Aggregate.AVERAGE:
        weights = tree_sizes
    else:
        # Sum / Count / Rank: push-sum with unit weight at the largest-tree
        # root makes s/w converge to the global total.
        weights = (roots == largest).astype(float)

    epsilon = config.epsilon
    if epsilon is None and aggregate in (Aggregate.COUNT, Aggregate.RANK):
        # Rounding recovers the integer only from an absolute error below
        # 1/2; n^-2 keeps a margin of n/2 and still costs O(log n) rounds.
        epsilon = float(n) ** -2
    ave = run_gossip_ave(
        roots=roots,
        local_sums=local_sums,
        local_weights=weights,
        root_of=root_of,
        n=n,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        rounds=config.ave_rounds,
        epsilon=epsilon,
        alive=alive,
        trace_root=largest,
        churn=churn,
        churn_base_round=churn_base,
        backend=config.backend,
    )
    churn_base += ave.rounds
    answer = ave.estimate_at(largest)
    if not np.isfinite(answer):
        answer = float(local_sums.sum() / max(1.0, weights.sum()))

    spread = run_data_spread(
        roots=roots,
        spreader=largest,
        value=float(answer),
        root_of=root_of,
        n=n,
        failure_model=config.failure_model,
        rng=rng,
        metrics=metrics,
        gossip_rounds=config.gossip_rounds,
        sampling_rounds=config.sampling_rounds,
        alive=alive,
        churn=churn,
        churn_base_round=churn_base,
        backend=config.backend,
    )
    payload, received = _broadcast_estimates(drr, spread.estimates, rng, config, metrics)

    transform = None
    exact_value = None
    if aggregate == Aggregate.RANK:
        transform = np.round
        exact_value = exact_aggregate(Aggregate.RANK, raw_values[alive], query=query)
    elif aggregate == Aggregate.COUNT:
        transform = np.round
        exact_value = float(alive.sum())
    return _finalise(
        aggregate,
        drr,
        spread.estimates,
        payload,
        received,
        raw_values,
        metrics,
        transform=transform,
        exact_value=exact_value,
    )


def drr_gossip_average(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the global Average at every node (Algorithm 8)."""
    return _pushsum_pipeline(values, Aggregate.AVERAGE, rng, config)


def drr_gossip_sum(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the global Sum at every node.

    Exact only on a failure-free network, like :func:`drr_gossip_count`.
    """
    return _pushsum_pipeline(values, Aggregate.SUM, rng, config)


def drr_gossip_count(
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the network size (Count) at every node.

    Exact only on a failure-free network (no message loss, no crashes).
    Under failures the estimate can miss by tens of percent: at n = 4096
    over seeds 3-5, 5% message loss reads 39% low to 9% high, while
    Average under the same failures stays within 2%.
    """
    return _pushsum_pipeline(values, Aggregate.COUNT, rng, config)


def drr_gossip_rank(
    values: np.ndarray,
    query: float | None = None,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
) -> DRRGossipResult:
    """Compute the rank of ``query`` (number of values <= query) at every node.

    ``query=None`` ranks the input median.  Exact only on a failure-free
    network, like :func:`drr_gossip_count`.
    """
    return _pushsum_pipeline(values, Aggregate.RANK, rng, config, query=query)


def drr_gossip(
    values: np.ndarray,
    aggregate: Aggregate | str,
    rng: np.random.Generator | int | None = None,
    config: DRRGossipConfig | None = None,
    query: float | None = None,
) -> DRRGossipResult:
    """Dispatch to the pipeline for ``aggregate`` (the generic entry point)."""
    aggregate = Aggregate(aggregate)
    if aggregate == Aggregate.MAX:
        return drr_gossip_max(values, rng, config)
    if aggregate == Aggregate.MIN:
        return drr_gossip_min(values, rng, config)
    if aggregate == Aggregate.AVERAGE:
        return drr_gossip_average(values, rng, config)
    if aggregate == Aggregate.SUM:
        return drr_gossip_sum(values, rng, config)
    if aggregate == Aggregate.COUNT:
        return drr_gossip_count(values, rng, config)
    if aggregate == Aggregate.RANK:
        return drr_gossip_rank(values, query, rng, config)
    raise ValueError(f"unsupported aggregate {aggregate!r}")  # pragma: no cover
