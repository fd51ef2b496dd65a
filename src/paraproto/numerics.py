"""Dense vector math: distance kinds, row sums by index, a stabilized softmax,
and a finite-difference gradient oracle used to check every analytic backward
pass in the package. The batched distances and the episode cross-entropy live
in `protonet`.

All arithmetic is float64. Inputs are small (dimensions in the tens), so plain
numpy summation order is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PROB_EPS = 1e-12

SQUARED_EUCLIDEAN = "sqeuclidean"
COSINE = "cosine"
DISTANCE_KINDS = (SQUARED_EUCLIDEAN, COSINE)


@dataclass
class GradCheckReport:
    """Outcome of comparing an analytic gradient against finite differences."""

    max_relative_error: float
    per_parameter_errors: np.ndarray


def add_rows_at(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """The (k, d) `rows` summed into rows `index` of a zeroed row-major table,
    as a flat vector of `size` cells: one weighted bincount over cell numbers,
    each cell adding its terms to 0.0 in row order, as np.add.at does."""
    d = rows.shape[1]
    cells = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=size)


def softmax_over_neg_distances(dists: Sequence[float]) -> np.ndarray:
    """softmax(-dists), stabilized by max-subtraction on the logits."""
    d = np.asarray(dists, dtype=np.float64)
    if d.size == 0:
        raise ValueError("softmax over empty distance list")
    if not np.all(np.isfinite(d)):
        raise ValueError("non-finite distance in softmax input")
    logits = -d
    logits = logits - logits.max()
    exps = np.exp(logits)
    return exps / exps.sum()


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of loss_fn at params, one coordinate at a time.

    loss_fn must be deterministic for fixed params.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(params, dtype=np.float64).copy()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        up = loss_fn(theta)
        theta[i] = orig - eps
        down = loss_fn(theta)
        theta[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"non-finite loss at parameter {i}")
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def gradient_check(
    analytic: np.ndarray,
    numeric: np.ndarray,
    denom_floor: float = 1e-3,
) -> GradCheckReport:
    """Relative error per parameter, |a - n| / max(|a| + |n|, denom_floor).

    The denominator floor keeps near-zero gradient entries from inflating the
    error through division by finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != n.shape:
        raise ValueError(f"gradient shape mismatch: {a.shape} vs {n.shape}")
    denom = np.maximum(np.abs(a) + np.abs(n), denom_floor)
    errors = np.abs(a - n) / denom
    return GradCheckReport(max_relative_error=float(errors.max()), per_parameter_errors=errors)
