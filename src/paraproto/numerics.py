"""Dense vector math: distance kinds, row sums by index and a stabilized
row-wise softmax. The batched distances and the episode cross-entropy,
which calls this softmax, live in `protonet`.

All arithmetic is float64. Inputs are small (dimensions in the tens), so plain
numpy summation order is used throughout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PROB_EPS = 1e-12

SQUARED_EUCLIDEAN = "sqeuclidean"
COSINE = "cosine"
DISTANCE_KINDS = (SQUARED_EUCLIDEAN, COSINE)


def add_rows_at(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """The (k, d) `rows` summed into rows `index` of a zeroed row-major table,
    as a flat vector of `size` cells: one weighted bincount over cell numbers,
    each cell adding its terms to 0.0 in row order, as np.add.at does."""
    d = rows.shape[1]
    cells = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=size)


def softmax_over_neg_distances(dists: Sequence[float] | np.ndarray) -> np.ndarray:
    """softmax(-dists) over the last axis, each row stabilized by
    max-subtraction on its logits, computed in place in one new array."""
    d = np.asarray(dists, dtype=np.float64)
    if d.size == 0:
        raise ValueError("softmax over empty distance list")
    if not np.isfinite(d).all():
        raise ValueError("non-finite distance in softmax input")
    probs = -d
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs
