"""Aggregate functions the paper computes and their exact references.

The paper's protocols compute "the common aggregates (such as Min, Max,
Count, Sum, Average, Rank etc.)" (Section 1.2).  This module defines the
aggregate kinds, exact (centralised) reference implementations used to judge
protocol output, and the error criteria used throughout the analysis:

* Max / Min / Count / Sum / Rank are exact aggregates -- a protocol either
  returns the right value or it does not;
* Average (and Sum when computed through push-sum) converges geometrically,
  so it is judged by relative error, with the paper's fallback to absolute
  error when the true average is zero (end of Section 3.3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Aggregate",
    "exact_aggregate",
    "relative_error",
    "AggregateSpec",
    "AGGREGATE_SPECS",
]


class Aggregate(str, enum.Enum):
    """The aggregate functions supported by the DRR-gossip pipelines."""

    MAX = "max"
    MIN = "min"
    SUM = "sum"
    COUNT = "count"
    AVERAGE = "average"
    #: Rank of a distinguished query value: the number of node values that
    #: are <= the query.  Computed as a Sum of indicator values, which is how
    #: the paper's "Rank" reduces to its Sum/Count machinery.
    RANK = "rank"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AggregateSpec:
    """How an aggregate is computed and judged.

    Attributes
    ----------
    kind:
        The aggregate.
    exact_fn:
        Centralised reference computation over the full value vector.
    """

    kind: Aggregate
    exact_fn: Callable[[np.ndarray], float]


def _count(values: np.ndarray) -> float:
    return float(values.size)


AGGREGATE_SPECS: dict[Aggregate, AggregateSpec] = {
    Aggregate.MAX: AggregateSpec(Aggregate.MAX, lambda v: float(np.max(v))),
    Aggregate.MIN: AggregateSpec(Aggregate.MIN, lambda v: float(np.min(v))),
    Aggregate.SUM: AggregateSpec(Aggregate.SUM, lambda v: float(np.sum(v))),
    Aggregate.COUNT: AggregateSpec(Aggregate.COUNT, _count),
    Aggregate.AVERAGE: AggregateSpec(Aggregate.AVERAGE, lambda v: float(np.mean(v))),
    Aggregate.RANK: AggregateSpec(Aggregate.RANK, lambda v: float(np.sum(v <= 0.0))),
}


def exact_aggregate(kind: Aggregate, values: np.ndarray, query: float | None = None) -> float:
    """Exact value of an aggregate over ``values``.

    ``query`` is only used for :attr:`Aggregate.RANK`, where it is the value
    whose rank (number of node values <= query) is requested.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty value vector")
    if kind == Aggregate.RANK:
        if query is None:
            raise ValueError("Aggregate.RANK needs a query value")
        return float(np.sum(values <= query))
    return AGGREGATE_SPECS[Aggregate(kind)].exact_fn(values)


def relative_error(estimate: float, truth: float, absolute_fallback: bool = True) -> float:
    """The paper's error criterion for convergent aggregates.

    ``|estimate - truth| / |truth|`` when the truth is non-zero; when the
    truth is zero the paper switches to the absolute criterion
    ``|estimate|`` (Section 3.3.2, last paragraph), which
    ``absolute_fallback`` enables.
    """
    if truth != 0.0:
        return abs(estimate - truth) / abs(truth)
    if absolute_fallback:
        return abs(estimate)
    return float("inf") if estimate != 0.0 else 0.0

