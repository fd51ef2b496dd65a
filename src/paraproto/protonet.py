"""Supervised episodic loss for prototypical networks: class prototypes as
support means, softmax over negative distances, average negative
log-probability of the true class, with an analytic backward pass through
both query and support embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .data import Dataset, ClassSplit, Episode, sample_episode
from .encoder import EncoderGradients, EncoderParams, Vocabulary, encode_batch, encode_batch_backward, tokenize


@dataclass
class Prototypes:
    """One prototype vector per label, in label order."""

    vectors: np.ndarray  # (C, d)
    labels: list[str]

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.labels):
            raise ValueError("one prototype vector per label required")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite prototype")


@dataclass
class EvalResult:
    mean_accuracy: float
    per_episode_accuracies: list[float]
    episode_count: int


def encode_episode(
    episode: Episode, params: EncoderParams, vocab: Vocabulary
) -> tuple[list[list[str]], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Embed support then query in one encoder call and build the prototypes.

    Returns (token lists, class index per row, embeddings (n, d), prototypes
    (C, d) as per-class support means in episode class order, shots per class).
    """
    class_order = {label: i for i, label in enumerate(episode.episode_classes)}
    rows = episode.support + episode.query
    tokens = [tokenize(text) for text, _ in rows]
    classes = np.array([class_order[label] for _, label in rows])
    embs = encode_batch(params, tokens, vocab)

    n_support = len(episode.support)
    support_class = classes[:n_support]
    shots = np.bincount(support_class, minlength=len(class_order))
    if np.any(shots == 0):
        missing = episode.episode_classes[int(np.argmin(shots))]
        raise ValueError(f"episode class {missing!r} has no support examples")
    protos = np.zeros((len(shots), embs.shape[1]))
    np.add.at(protos, support_class, embs[:n_support])
    protos /= shots[:, None]
    return tokens, classes, embs, protos, shots


def _pairwise_distances(queries: np.ndarray, protos: np.ndarray, kind: str) -> np.ndarray:
    if queries.shape[1] != protos.shape[1]:
        raise ValueError(
            f"embedding dimension mismatch: {queries.shape[1]} vs {protos.shape[1]}"
        )
    if kind == numerics.SQUARED_EUCLIDEAN:
        diff = queries[:, None, :] - protos[None, :, :]
        return np.einsum("jcd,jcd->jc", diff, diff)
    if kind == numerics.COSINE:
        qn = np.linalg.norm(queries, axis=1)
        pn = np.linalg.norm(protos, axis=1)
        if np.any(qn == 0) or np.any(pn == 0):
            raise ValueError("cosine distance undefined for zero-norm embeddings")
        return 1.0 - (queries @ protos.T) / np.outer(qn, pn)
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
    query_embedding: np.ndarray, prototypes: Prototypes, distance: str = numerics.SQUARED_EUCLIDEAN
) -> np.ndarray:
    """Distribution over the prototype labels for one query embedding."""
    dists = _pairwise_distances(
        np.asarray(query_embedding, dtype=np.float64)[None, :], prototypes.vectors, distance
    )[0]
    return numerics.softmax_over_neg_distances(dists)


def supervised_episode_loss(
    episode: Episode,
    params: EncoderParams,
    vocab: Vocabulary,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> tuple[float, EncoderGradients]:
    """Episode loss and full parameter gradients (through support and query)."""
    tokens, classes, embs, protos, shots = encode_episode(episode, params, vocab)
    n_support = len(episode.support)
    support_class = classes[:n_support]

    loss, d_query, d_proto = softmax_cross_entropy_episode(
        embs[n_support:], protos, classes[n_support:], distance
    )
    d_support = d_proto[support_class] / shots[support_class][:, None]
    grads = encode_batch_backward(params, tokens, vocab, np.concatenate([d_support, d_query]))
    return loss, grads


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

    Each query is assigned the class of its nearest prototype.
    """
    accuracies = []
    for _ in range(n_episodes):
        episode = sample_episode(
            dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled=0, rng=rng
        )
        _, classes, embs, protos, _ = encode_episode(episode, params, vocab)
        n_support = len(episode.support)
        dists = _pairwise_distances(embs[n_support:], protos, distance)
        if not np.all(np.isfinite(dists)):
            raise ValueError("non-finite distance between a query and a prototype")
        correct = np.count_nonzero(np.argmin(dists, axis=1) == classes[n_support:])
        accuracies.append(correct / len(episode.query))
    return EvalResult(
        mean_accuracy=float(np.mean(accuracies)),
        per_episode_accuracies=accuracies,
        episode_count=n_episodes,
    )
