"""The prototypical-network loss: prototypes as group means of support
rows, softmax over negative distances, average negative log-probability of
each query's own group, with an analytic backward pass through both query
and support embeddings. Labeled episodes (groups are classes) and paraphrase
batches (see `consistency`) are two row layouts of this one loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .data import Dataset, ClassSplit, SampledEpisode, check_episode_shape, sample_episode_rows
from .encoder import EncoderParams, TokenRows, Vocabulary, encode_batch_backward, forward

# byte cap on one evaluation block's squared-distance difference tensor:
# scoring every episode at once would hold all of their embeddings
EVAL_BLOCK_BYTES = 128 * 1024


@dataclass
class EvalResult:
    mean_accuracy: float
    per_episode_accuracies: list[float]
    episode_count: int


def prototypes(embs: np.ndarray, groups: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group means of embedding rows, (n_groups, d), and rows per group."""
    shots = np.bincount(groups, minlength=n_groups)
    d = embs.shape[1]
    protos = numerics.add_rows_at(groups, embs, n_groups * d).reshape(n_groups, d)
    protos /= shots[:, None]
    return protos, shots


def _pairwise_distances(queries: np.ndarray, protos: np.ndarray, kind: str) -> np.ndarray:
    """(..., Q, C) distances between (..., Q, d) queries and (..., C, d)
    prototypes; leading batch dimensions are episodes."""
    if queries.shape[-1] != protos.shape[-1]:
        raise ValueError(
            f"embedding dimension mismatch: {queries.shape[-1]} vs {protos.shape[-1]}"
        )
    if kind == numerics.SQUARED_EUCLIDEAN:
        diff = queries[..., :, None, :] - protos[..., None, :, :]
        return np.einsum("...jcd,...jcd->...jc", diff, diff)
    if kind == numerics.COSINE:
        qn = np.linalg.norm(queries, axis=-1)
        pn = np.linalg.norm(protos, axis=-1)
        if np.any(qn == 0) or np.any(pn == 0):
            raise ValueError("cosine distance undefined for zero-norm embeddings")
        return 1.0 - (queries @ np.swapaxes(protos, -1, -2)) / (qn[..., :, None] * pn[..., None, :])
    raise ValueError(f"unknown distance kind: {kind!r}")


def _distance_backward(
    queries: np.ndarray, protos: np.ndarray, kind: str, d_dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(d_dist * dist(queries, protos)) w.r.t. both inputs."""
    if kind == numerics.SQUARED_EUCLIDEAN:
        diff = queries[:, None, :] - protos[None, :, :]
        weighted = 2.0 * d_dist[:, :, None] * diff
        return weighted.sum(axis=1), -weighted.sum(axis=0)
    if kind == numerics.COSINE:
        qn = np.linalg.norm(queries, axis=1)
        pn = np.linalg.norm(protos, axis=1)
        inv = 1.0 / np.outer(qn, pn)
        cos = (queries @ protos.T) * inv
        # d(1 - cos)/dq = -p/(|q||p|) + cos * q/|q|^2, and symmetrically for p
        d_q = -(d_dist * inv) @ protos + ((d_dist * cos).sum(axis=1) / qn**2)[:, None] * queries
        d_p = -(d_dist * inv).T @ queries + ((d_dist * cos).sum(axis=0) / pn**2)[:, None] * protos
        return d_q, d_p
    raise ValueError(f"unknown distance kind: {kind!r}")


def softmax_cross_entropy_episode(
    queries: np.ndarray, protos: np.ndarray, targets: np.ndarray, kind: str
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax(-dist) rows against targets.

    Returns (loss, d_queries, d_protos); shared by the supervised and the
    paraphrase-consistency losses, which differ only in where the prototypes
    come from.
    """
    dists = _pairwise_distances(queries, protos, kind)
    n = queries.shape[0]
    logits = -dists
    logits -= logits.max(axis=1, keepdims=True)
    exps = np.exp(logits)
    probs = exps / exps.sum(axis=1, keepdims=True)
    picked = np.maximum(probs[np.arange(n), targets], numerics.PROB_EPS)
    loss = float(-np.log(picked).mean())
    d_logits = probs.copy()
    d_logits[np.arange(n), targets] -= 1.0
    d_dist = -d_logits / n
    d_q, d_p = _distance_backward(queries, protos, kind, d_dist)
    return loss, d_q, d_p


def classify(
    query_embedding: np.ndarray, protos: np.ndarray, distance: str = numerics.SQUARED_EUCLIDEAN
) -> np.ndarray:
    """Distribution over the (C, d) prototypes for one query embedding."""
    dists = _pairwise_distances(
        np.asarray(query_embedding, dtype=np.float64)[None, :], protos, distance
    )[0]
    return numerics.softmax_over_neg_distances(dists)


def prototypical_loss(
    params: EncoderParams,
    tokens: TokenRows,
    groups: np.ndarray,
    support: slice,
    query: slice,
    n_groups: int,
    distance: str,
) -> tuple[float, EncoderParams]:
    """Prototypical-network loss over rows in the caller's order, and its
    gradients through every row (Snell et al. 2017).

    `groups` gives each row's group; the `support` rows of a group average
    into its prototype, and every `query` row is scored against all
    prototypes with its own group as the target.
    """
    fwd = forward(params, tokens)
    embs = fwd.out
    protos, shots = prototypes(embs[support], groups[support], n_groups)
    loss, d_query, d_proto = softmax_cross_entropy_episode(
        embs[query], protos, groups[query], distance
    )
    upstream = np.zeros_like(embs)
    upstream[query] = d_query
    upstream[support] = d_proto[groups[support]] / shots[groups[support]][:, None]
    return loss, encode_batch_backward(params, fwd, upstream)


def supervised_episode_loss(
    episode: SampledEpisode,
    params: EncoderParams,
    vocab: Vocabulary,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> tuple[float, EncoderParams]:
    """Episode loss and full parameter gradients (through support and query),
    over the episode's rows gathered from its dataset's token ids."""
    n_support = episode.n_support
    return prototypical_loss(
        params, episode.dataset.token_rows(vocab).take(episode.rows), episode.classes,
        slice(0, n_support), slice(n_support, None), len(episode.episode_classes), distance,
    )


def evaluate(
    params: EncoderParams,
    vocab: Vocabulary,
    dataset: Dataset,
    split: ClassSplit,
    part: str,
    n_way: int,
    k_shot: int,
    query_per_class: int,
    n_episodes: int,
    rng: np.random.Generator,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> EvalResult:
    """Mean query accuracy over freshly sampled episodes; never updates params.

    Every episode's rows are drawn first, in one `sample_episode_rows` call
    with no unlabeled rows: the draws of that many `sample_episode` calls.
    The parameters are fixed during a call, so the rows of the part's
    classes are encoded once, in one batch, and episodes are scored in
    blocks that gather their embeddings from that batch. Each query is
    assigned the class of its nearest prototype.
    """
    check_episode_shape(n_way, k_shot, query_per_class)
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    _, _, rows, _ = sample_episode_rows(
        dataset, split, part, n_way, k_shot + query_per_class, 0, n_episodes, rng
    )
    part_rows = dataset.class_rows(split.part(part))
    encoded = forward(params, dataset.token_rows(vocab).take(part_rows)).out
    position = np.zeros(len(dataset), dtype=np.intp)  # dataset row -> row of `encoded`
    position[part_rows] = np.arange(len(part_rows))
    rows = position[rows]

    n_query = n_way * query_per_class
    # episodes per block, from the size of its (episodes, queries, classes, d)
    # squared-distance difference tensor
    block = max(1, EVAL_BLOCK_BYTES // (n_query * n_way * encoded.shape[1] * encoded.itemsize))
    targets = np.repeat(np.arange(n_way), query_per_class)
    correct = np.empty(n_episodes, dtype=np.intp)
    for start in range(0, n_episodes, block):
        embs = encoded[rows[start : start + block]]  # (episodes, n_way, k_shot + query, d)
        # the support mean of `prototypes`: shots added in order, then divided
        protos = np.zeros((len(embs), n_way, encoded.shape[1]))
        for shot in range(k_shot):
            protos += embs[:, :, shot]
        protos /= k_shot
        queries = embs[:, :, k_shot:].reshape(len(embs), n_query, -1)
        dists = _pairwise_distances(queries, protos, distance)
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
