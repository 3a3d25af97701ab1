"""Scaling-law fitting for the complexity experiments.

The reproduction never tries to match the paper's constants (there are none
to match -- the results are asymptotic); instead it checks *shapes*:

* the per-node message count of DRR-gossip should grow like ``log log n``
  while uniform gossip grows like ``log n`` -- checked by fitting
  ``messages/n`` against candidate shape functions and comparing residuals;
* round counts should grow like ``log n`` (DRR-gossip, uniform gossip) or
  ``log n log log n`` (efficient gossip);
* forest statistics should track ``n / log n`` and ``log n``.

Everything here is ordinary least squares on small design matrices; SciPy is
not required (NumPy's ``lstsq`` suffices), keeping the analysis importable in
minimal environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["FitResult", "fit_shape", "best_shape", "power_law_exponent", "CANDIDATE_SHAPES"]


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of ``y ~ a * shape(n) + b``."""

    shape_name: str
    slope: float
    intercept: float
    r_squared: float
    residual_rms: float


#: Candidate growth shapes for normalised quantities (per-node messages,
#: rounds, ...).  Keys are the names experiments report.
CANDIDATE_SHAPES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "constant": lambda n: np.ones_like(np.asarray(n, dtype=float)),
    "loglog n": lambda n: np.maximum(1.0, np.log2(np.maximum(1.0, np.log2(np.asarray(n, dtype=float))))),
    "log n": lambda n: np.log2(np.asarray(n, dtype=float)),
    "log^2 n": lambda n: np.log2(np.asarray(n, dtype=float)) ** 2,
    "log n * loglog n": lambda n: np.log2(np.asarray(n, dtype=float))
    * np.maximum(1.0, np.log2(np.maximum(1.0, np.log2(np.asarray(n, dtype=float))))),
    "sqrt n": lambda n: np.sqrt(np.asarray(n, dtype=float)),
    "n": lambda n: np.asarray(n, dtype=float),
    "n / log n": lambda n: np.asarray(n, dtype=float) / np.log2(np.asarray(n, dtype=float)),
}


def fit_shape(
    n_values: Sequence[float],
    y_values: Sequence[float],
    shape: str | Callable[[np.ndarray], np.ndarray],
) -> FitResult:
    """Fit ``y = a * shape(n) + b`` by least squares and report goodness of fit."""
    n_arr = np.asarray(n_values, dtype=float)
    y_arr = np.asarray(y_values, dtype=float)
    if n_arr.size != y_arr.size or n_arr.size < 2:
        raise ValueError("need at least two (n, y) pairs of equal length")
    if callable(shape):
        shape_fn, shape_name = shape, getattr(shape, "__name__", "custom")
    else:
        shape_name = shape
        try:
            shape_fn = CANDIDATE_SHAPES[shape]
        except KeyError as exc:
            raise ValueError(f"unknown shape {shape!r}; known: {sorted(CANDIDATE_SHAPES)}") from exc
    x = shape_fn(n_arr)
    design = np.column_stack([x, np.ones_like(x)])
    coeffs, *_ = np.linalg.lstsq(design, y_arr, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    predictions = design @ coeffs
    residuals = y_arr - predictions
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y_arr - y_arr.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(
        shape_name=shape_name,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        residual_rms=float(np.sqrt(ss_res / n_arr.size)),
    )


def best_shape(
    n_values: Sequence[float],
    y_values: Sequence[float],
    candidates: Mapping[str, Callable[[np.ndarray], np.ndarray]] | Sequence[str] | None = None,
) -> FitResult:
    """Return the candidate shape with the lowest residual RMS.

    Used by the Table 1 experiment to answer "does messages/n grow like
    ``log n`` or like ``log log n``?" without hand-tuning constants.  Shapes
    whose fitted slope is negative are discarded (a complexity curve cannot
    genuinely decrease in ``n``; a negative slope just means the shape is a
    poor explanation).
    """
    if candidates is None:
        names = list(CANDIDATE_SHAPES)
    elif isinstance(candidates, Mapping):
        names = list(candidates)
    else:
        names = list(candidates)
    fits = []
    for name in names:
        fit = fit_shape(n_values, y_values, name)
        if fit.slope >= 0 or name == "constant":
            fits.append(fit)
    if not fits:
        raise ValueError("no admissible shape fits the data")
    return min(fits, key=lambda f: f.residual_rms)


def power_law_exponent(n_values: Sequence[float], y_values: Sequence[float]) -> float:
    """Fit ``y ~ C * n^alpha`` by log-log least squares and return ``alpha``.

    Useful as a coarse check: total messages of every protocol here should
    have an exponent very close to 1 (they are all ``n * polylog``), while
    total work of a quadratic strawman would show exponent ~2.
    """
    n_arr = np.asarray(n_values, dtype=float)
    y_arr = np.asarray(y_values, dtype=float)
    if (n_arr <= 0).any() or (y_arr <= 0).any():
        raise ValueError("power-law fitting needs strictly positive data")
    slope, _ = np.polyfit(np.log(n_arr), np.log(y_arr), 1)
    return float(slope)
