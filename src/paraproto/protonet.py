"""The prototypical-network loss: prototypes as group means of support
rows, softmax over negative distances, average negative log-probability of
each query's own group, with an analytic backward pass through both query
and support embeddings. Labeled episodes (groups are classes) and paraphrase
batches (see `consistency`) are two row layouts of this one loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .data import EpisodeSource
from .encoder import EncoderParams, TokenRows, encode_batch_backward, forward

# byte cap on one evaluation block's gathered support and query embeddings
# and (queries, classes) distances: scoring every episode at once would hold
# all of them. Of 128 KB, 384 KB and 1 MB, 128 KB (15 five-way 1-shot 5-query
# episodes at d = 32) scored 200 episodes fastest and held the least memory
# (ROADMAP perf notes)
EVAL_BLOCK_BYTES = 128 * 1024


@dataclass
class EvalResult:
    mean_accuracy: float
    per_episode_accuracies: list[float]
    episode_count: int


def prototypes(support: np.ndarray, shots: int) -> np.ndarray:
    """(..., G, d) group means of (..., G * shots, d) support rows stored
    group by group, leading dimensions being episodes: each group's rows
    added in order to zeros, then divided by `shots`."""
    *lead, rows, d = support.shape
    grouped = support.reshape(*lead, rows // shots, shots, d)
    protos = np.zeros(grouped.shape[:-2] + (d,))
    for shot in range(shots):
        protos += grouped[..., shot, :]
    protos /= shots
    return protos


def _pairwise_distances(
    queries: np.ndarray, protos: np.ndarray, kind: str
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """(..., Q, C) distances between (..., Q, d) queries and (..., C, d)
    prototypes, leading batch dimensions being episodes, and their `backward`:
    d_dist -> gradients of sum(d_dist * dist) w.r.t. queries and prototypes,
    batched for squared Euclidean, for 2-D inputs for cosine. Squared
    Euclidean is |q|^2 + |p|^2 - 2 q.p, one matrix product, clamped at 0."""
    if queries.shape[-1] != protos.shape[-1]:
        raise ValueError(
            f"embedding dimension mismatch: {queries.shape[-1]} vs {protos.shape[-1]}"
        )
    if kind == numerics.SQUARED_EUCLIDEAN:
        dists = queries @ protos.swapaxes(-1, -2)
        dists *= -2.0
        dists += np.einsum("...qd,...qd->...q", queries, queries)[..., :, None]
        dists += np.einsum("...cd,...cd->...c", protos, protos)[..., None, :]
        np.maximum(dists, 0.0, out=dists)  # rounding can leave a coincident pair below 0; nan stays nan

        def backward(d_dist):
            d_q = np.add.reduce(d_dist, axis=-1)[..., None] * queries - d_dist @ protos
            d_p = np.add.reduce(d_dist, axis=-2)[..., None] * protos - d_dist.swapaxes(-1, -2) @ queries
            return 2.0 * d_q, 2.0 * d_p

        return dists, backward
    if kind == numerics.COSINE:
        qn = np.linalg.norm(queries, axis=-1)
        pn = np.linalg.norm(protos, axis=-1)
        if np.any(qn == 0) or np.any(pn == 0):
            raise ValueError("cosine distance undefined for zero-norm embeddings")

        def backward(d_dist):
            inv = 1.0 / np.outer(qn, pn)
            cos = (queries @ protos.T) * inv
            # d(1 - cos)/dq = -p/(|q||p|) + cos * q/|q|^2, and symmetrically for p
            d_q = -(d_dist * inv) @ protos + ((d_dist * cos).sum(axis=1) / qn**2)[:, None] * queries
            d_p = -(d_dist * inv).T @ queries + ((d_dist * cos).sum(axis=0) / pn**2)[:, None] * protos
            return d_q, d_p

        return 1.0 - (queries @ np.swapaxes(protos, -1, -2)) / (qn[..., :, None] * pn[..., None, :]), backward
    raise ValueError(f"unknown distance kind: {kind!r}")


def softmax_cross_entropy_episode(
    queries: np.ndarray, protos: np.ndarray, targets: np.ndarray, kind: str
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(-dist) rows against targets.

    Returns (loss, d_queries, d_protos); shared by the supervised and the
    paraphrase-consistency losses, which differ only in where the prototypes
    come from.
    """
    dists, backward = _pairwise_distances(queries, protos, kind)
    n = queries.shape[0]
    probs = numerics.softmax_over_neg_distances(dists)
    own = (np.arange(n), targets)
    picked = np.maximum(probs[own], numerics.PROB_EPS)
    loss = float(-np.add.reduce(np.log(picked)) / n)
    probs[own] -= 1.0  # now d(loss)/d(logits), times n
    d_q, d_p = backward(-probs / n)
    return loss, d_q, d_p


def classify(
    query_embedding: np.ndarray, protos: np.ndarray, distance: str = numerics.SQUARED_EUCLIDEAN
) -> np.ndarray:
    """Distribution over the (C, d) prototypes for one query embedding."""
    dists = _pairwise_distances(
        np.asarray(query_embedding, dtype=np.float64)[None, :], protos, distance
    )[0][0]
    return numerics.softmax_over_neg_distances(dists)


def prototypical_loss(
    params: EncoderParams,
    tokens: TokenRows,
    support: slice,
    query: slice,
    n_groups: int,
    distance: str,
) -> tuple[float, EncoderParams]:
    """Prototypical-network loss over rows in the caller's order, and its
    gradients through every row (Snell et al. 2017).

    The `support` and the `query` rows each hold `n_groups` groups of equal
    size, stored group by group; a group's support rows average into its
    prototype, and every query row is scored against all prototypes with
    its own group as the target.
    """
    fwd = forward(params, tokens)
    embs = fwd.out
    shots = len(embs[support]) // n_groups
    protos = prototypes(embs[support], shots)
    targets = np.arange(n_groups).repeat(len(embs[query]) // n_groups)
    loss, d_query, d_proto = softmax_cross_entropy_episode(embs[query], protos, targets, distance)
    upstream = np.zeros(embs.shape)
    upstream[query] = d_query
    upstream[support] = (d_proto / shots).repeat(shots, axis=0)
    return loss, encode_batch_backward(params, fwd, upstream)


def supervised_episode_loss(
    params: EncoderParams,
    tokens: TokenRows,
    n_way: int,
    k_shot: int,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> tuple[float, EncoderParams]:
    """Episode loss and full parameter gradients (through support and query)
    over an episode's `tokens` in the support-then-query layout of `EpisodeSource.draw`."""
    n_support = n_way * k_shot
    return prototypical_loss(params, tokens, slice(0, n_support), slice(n_support, None), n_way, distance)


def evaluate(
    params: EncoderParams,
    tokens: TokenRows,
    source: EpisodeSource,
    n_episodes: int,
    rng: np.random.Generator,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> EvalResult:
    """Mean query accuracy over freshly drawn episodes; never updates params.

    `tokens` holds the ids of every record of `source`'s dataset, row i for
    record i. Every episode's rows are drawn first, in one `source.draw`, so
    `source` draws no unlabeled rows. The parameters are fixed during a call,
    so the source's rows are encoded once, in one batch, and episodes are
    scored in blocks that gather their embeddings from that batch. Each query
    is assigned the class of its nearest prototype.
    """
    if len(tokens) != len(source.dataset):
        raise ValueError(f"{len(tokens)} token rows for a dataset of {len(source.dataset)} records")
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if source.n_unlabeled:
        raise ValueError("an evaluation source draws no unlabeled rows")
    rows, _ = source.draw(n_episodes, rng)
    encoded = forward(params, tokens.take(source.rows)).out
    position = np.zeros(len(tokens), dtype=np.intp)  # dataset row -> row of `encoded`
    position[source.rows] = np.arange(len(source.rows))
    rows = position[rows]

    n_way, k_shot, query_per_class = source.n_way, source.k_shot, source.query_per_class
    n_support, n_query = n_way * k_shot, n_way * query_per_class
    # episodes per block, from what a block holds: each episode's gathered
    # support and query embeddings and its (queries, classes) distances
    block = max(1, EVAL_BLOCK_BYTES // (((n_support + n_query) * encoded.shape[1] + n_query * n_way)
                                        * encoded.itemsize))
    targets = np.repeat(np.arange(n_way), query_per_class)
    correct = np.empty(n_episodes, dtype=np.intp)
    for start in range(0, n_episodes, block):
        embs = encoded[rows[start : start + block]]  # (episodes, support + query rows, d)
        protos = prototypes(embs[:, :n_support], k_shot)
        dists = _pairwise_distances(embs[:, n_support:], protos, distance)[0]
        if not np.isfinite(dists).all():
            raise ValueError("non-finite distance between a query and a prototype")
        correct[start : start + len(embs)] = np.count_nonzero(
            dists.argmin(axis=2) == targets, axis=1
        )
    accuracies = (correct / n_query).tolist()
    return EvalResult(
        mean_accuracy=float(np.mean(accuracies)),
        per_episode_accuracies=accuracies,
        episode_count=n_episodes,
    )
