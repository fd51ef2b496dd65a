"""Diversity and similarity measurement: distinct-2 lexical diversity,
sentence BLEU with brevity penalty and optional add-one smoothing, and mean
pairwise cosine similarity of sentence embeddings."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, Vocabulary, encode_batch, tokenize


@dataclass
class DiversityReport:
    dist2: float
    bleu_vs_source: float
    mean_pairwise_similarity: float


def distinct_2(sentences: Sequence[Sequence[str]]) -> float:
    """Distinct adjacent bigrams across all sentences over total token count."""
    total_tokens = sum(len(s) for s in sentences)
    if total_tokens == 0:
        raise ValueError("distinct-2 undefined on an empty corpus")
    bigrams = {(a, b) for sent in sentences for a, b in zip(sent, sent[1:])}
    return len(bigrams) / total_tokens


@dataclass(frozen=True)
class BleuReference:
    """The reference side of sentence BLEU, counted once for any number of
    candidates. Reference tokens are numbered from 1 (`ids`); any other token
    reads as 0, like the end of a row, and matches nothing. An n-gram's code
    is `window @ digits[:, n-1] + offsets[n-1]`: its ids as base-R digits,
    R = len(ids) + 1, moved into a range of its own order n. `keys` are the
    sorted codes of every reference n-gram of orders 1..max_n; `limits[k]`
    holds, in the column of key k's order, the most times it occurs in any
    one reference."""

    ids: dict[str, int]
    digits: np.ndarray
    offsets: np.ndarray
    keys: np.ndarray
    limits: np.ndarray
    lengths: tuple[int, ...]


def _windows(rows: list[list[int]], max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The token-id rows laid end to end, each followed by a 0, as a
    (T, max_n) array whose line t holds the ids at positions t..t+max_n-1
    (0 past the end), and the row each position belongs to."""
    flat = np.array([i for row in rows for i in (*row, 0)] + [0] * (max_n - 1))
    starts = np.arange(len(flat) - max_n + 1)
    owner = np.repeat(np.arange(len(rows)), [len(row) + 1 for row in rows])
    return flat[starts[:, None] + np.arange(max_n)], owner


def _key_counts(codes: np.ndarray, owner: np.ndarray, n_rows: int, keys: np.ndarray) -> np.ndarray:
    """(n_rows, K, max_n): how often each of the sorted `keys` occurs among
    the codes of each row's positions, in the column of the key's order (a
    code's column in `codes`); the other columns are 0."""
    max_n = codes.shape[1]
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    cells = ((pos + len(keys) * owner[:, None]) * max_n + np.arange(max_n))[keys[pos] == codes]
    return np.bincount(cells, minlength=n_rows * len(keys) * max_n).reshape(n_rows, len(keys), max_n)


def bleu_reference(references: Sequence[Sequence[str]], max_n: int = 4) -> BleuReference:
    if not references or any(not r for r in references):
        raise ValueError("need at least one non-empty reference")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ids: dict[str, int] = {}
    rows = [[ids.setdefault(tok, len(ids) + 1) for tok in ref] for ref in references]
    base = len(ids) + 1
    if base**max_n >= 2**62:
        raise ValueError("too many distinct reference tokens to code n-grams in 64 bits")
    powers = [base**j for j in range(max_n)]
    digits = np.array([[0] * j + [p] * (max_n - j) for j, p in enumerate(powers)])
    offsets = np.array([0, *itertools.accumulate(powers[1:])])
    windows, owner = _windows(rows, max_n)
    codes = windows @ digits + offsets
    # reference ids are >= 1, so an n-gram lies inside its reference when
    # no id in it is 0
    keys = np.array(sorted(set(codes[np.minimum.accumulate(windows, axis=1) > 0].tolist())))
    limits = _key_counts(codes, owner, len(rows), keys).max(axis=0)
    return BleuReference(ids, digits, offsets, keys, limits, tuple(len(ref) for ref in references))


def _sentence_bleu(c: int, clipped_by_order: list[int], lengths: tuple[int, ...], smooth: bool) -> float:
    """BLEU of a length-c candidate from its clipped n-gram counts."""
    log_precisions = []
    for n, clipped in enumerate(clipped_by_order, start=1):
        total = c - n + 1
        if total < 1:
            break
        if clipped == 0:
            if not smooth:
                return 0.0
            log_precisions.append(math.log(1.0 / (total + 1)))
        else:
            log_precisions.append(math.log(clipped / total))

    # closest reference length; ties favor the shorter reference
    r = min((abs(length - c), length) for length in lengths)[1]
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(sum(log_precisions) / len(log_precisions))


def bleu_scores(
    candidates: Sequence[Sequence[str]], reference: BleuReference, smooth: bool = False
) -> list[float]:
    """Sentence BLEU of each candidate against a counted reference, with the
    n-grams of all candidates counted and clipped in one pass; see `bleu`."""
    if any(not cand for cand in candidates):
        raise ValueError("empty candidate")
    rows = [[reference.ids.get(tok, 0) for tok in cand] for cand in candidates]
    windows, owner = _windows(rows, len(reference.offsets))
    codes = windows @ reference.digits + reference.offsets
    counts = _key_counts(codes, owner, len(rows), reference.keys)
    clipped = np.minimum(counts, reference.limits).sum(axis=1)
    return [
        _sentence_bleu(len(cand), by_order, reference.lengths, smooth)
        for cand, by_order in zip(candidates, clipped.tolist())
    ]


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Sentence BLEU: clipped modified n-gram precision, uniform weights over
    the orders the candidate is long enough to support, brevity penalty, and
    add-one smoothing of zero-count precisions when `smooth` is set."""
    return bleu_scores([candidate], bleu_reference(references, max_n), smooth)[0]


def mean_pairwise_similarity(embeddings: Sequence[np.ndarray]) -> float:
    """Mean cosine similarity over all unordered pairs."""
    if len(embeddings) < 2:
        raise ValueError("need at least 2 embeddings")
    vectors = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    unit = vectors / norms[:, None]
    sims = unit @ unit.T
    upper = sims[np.triu_indices(len(embeddings), k=1)]
    return float(upper.mean())


def diversity_report(
    source: str,
    paraphrases: Sequence[str],
    encoder_params: EncoderParams,
    vocab: Vocabulary,
) -> DiversityReport:
    """Diversity of a paraphrase set: distinct-2 and mean pairwise similarity
    over {source} + paraphrases, plus mean BLEU of paraphrases against the
    source."""
    if len(paraphrases) < 2:
        raise ValueError("need at least 2 paraphrases")
    sentences = [source, *paraphrases]
    token_lists = [tokenize(s) for s in sentences]
    reference = bleu_reference(token_lists[:1])
    bleus = bleu_scores(token_lists[1:], reference, smooth=True)
    embeddings = encode_batch(encoder_params, token_lists, vocab)
    return DiversityReport(
        dist2=distinct_2(token_lists),
        bleu_vs_source=float(np.mean(bleus)),
        mean_pairwise_similarity=mean_pairwise_similarity(embeddings),
    )
