"""Phase III -- Data-spread (Algorithm 5).

Data-spread lets one distinguished root disseminate a value to every other
root: the spreader uses the value as its initial Gossip-max input and every
other root starts at ``-infinity``, after which a plain Gossip-max run makes
all roots adopt the spreader's value whp.  DRR-gossip-ave uses it so the root
of the largest tree (the only root whose Gossip-ave estimate Theorem 7
guarantees) can hand the final Average to the rest of the forest.
"""

from __future__ import annotations

import numpy as np

from ..simulator.failures import ChurnOracle, FailureModel
from ..simulator.metrics import MetricsCollector
from .gossip_max import GossipMaxResult, run_gossip_max

__all__ = ["run_data_spread"]


def run_data_spread(
    roots: np.ndarray,
    spreader: int,
    value: float,
    root_of: np.ndarray,
    n: int,
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    gossip_rounds: int | None = None,
    sampling_rounds: int | None = None,
    alive: np.ndarray | None = None,
    churn: ChurnOracle | None = None,
    churn_base_round: int = 0,
    backend: str = "vectorized",
) -> GossipMaxResult:
    """Spread ``value`` from root ``spreader`` to all roots (Algorithm 5).

    The result's ``estimates`` map every root to the value it ended up with;
    on a reliable network every entry equals ``value``.

    Notes
    -----
    The paper initialises the other roots to ``-infinity``.  We use ``-inf``
    as well; the value being spread must therefore be finite, which Algorithm
    5 also requires (``|x_ru| < inf``).
    """
    roots = np.asarray(roots, dtype=np.int64)
    if not np.isfinite(value):
        raise ValueError("Data-spread requires a finite value to spread")
    is_spreader = roots == spreader
    if not is_spreader.any():
        raise ValueError(f"spreader {spreader} is not one of the roots")
    initial = np.full(roots.shape, -np.inf, dtype=float)
    initial[np.argmax(is_spreader)] = float(value)
    return run_gossip_max(
        roots=roots,
        root_values=initial,
        root_of=root_of,
        n=n,
        failure_model=failure_model,
        rng=rng,
        metrics=metrics,
        gossip_rounds=gossip_rounds,
        sampling_rounds=sampling_rounds,
        phase_name="data-spread",
        alive=alive,
        churn=churn,
        churn_base_round=churn_base_round,
        backend=backend,
    )
