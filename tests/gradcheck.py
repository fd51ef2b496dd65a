"""The finite-difference oracle that checks every analytic backward pass in
the package: central differences one coordinate at a time, and the relative
error of an analytic gradient against them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class GradCheckReport:
    """Outcome of comparing an analytic gradient against finite differences."""

    max_relative_error: float
    per_parameter_errors: np.ndarray


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
