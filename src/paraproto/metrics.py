"""Diversity and similarity measurement: distinct-2 lexical diversity,
sentence BLEU with brevity penalty and optional add-one smoothing, and mean
pairwise cosine similarity of sentence embeddings."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, TokenRows, Vocabulary, forward, tokenize


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


def _clipped_counts(
    candidates: Sequence[Sequence[int]], owners: Sequence[int], references: Sequence[Sequence[Sequence[int]]],
    max_n: int,
) -> np.ndarray:
    """(C, max_n): how many of each candidate's n-grams of each order occur
    in its own source's references, `references[owners[c]]`, each counted at
    most as often as in the one reference that holds it most. One pass over
    every source: the tokens (ints >= 0) the references hold are numbered
    1..U, any other reads as 0, like a row's end, and matches nothing. An
    n-gram's code is its ids as base-(U+1) digits, in [(U+1)**(n-1),
    (U+1)**n) for order n when no id is 0, plus an offset per source.
    Sources whose codes would reach 2**62 are counted in two halves."""
    ref_rows = [row for refs in references for row in refs]
    rows = [*ref_rows, *candidates]
    sets = np.array([s for s, refs in enumerate(references) for _ in refs] + list(owners), dtype=np.intp)
    lengths = np.array([len(row) for row in rows])
    tokens = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    if tokens.min() < 0:
        raise ValueError("token ids must be >= 0")
    n_ref = int(lengths[: len(ref_rows)].sum())
    held = np.minimum(np.bincount(tokens[:n_ref], minlength=int(tokens.max()) + 1), 1)
    base = int(held.sum()) + 1
    powers = [base**n for n in range(max_n + 1)]
    span = powers[-1]  # one source's codes lie in [0, span)
    if len(references) * span >= 2**62:
        if len(references) == 1:
            raise ValueError("too many distinct reference tokens to code n-grams in 64 bits")
        counts, half = np.zeros((len(candidates), max_n), dtype=np.int64), len(references) // 2
        for lo, hi in ((0, half), (half, len(references))):
            picked = [c for c, o in enumerate(owners) if lo <= o < hi]
            part = [candidates[c] for c in picked], [owners[c] - lo for c in picked], references[lo:hi]
            counts[picked] = _clipped_counts(*part, max_n)
        return counts

    # each row's ids with a 0 after it, and from each token the next max_n ids
    row = np.repeat(np.arange(len(rows)), lengths)
    at = np.arange(len(tokens)) + row
    flat = np.zeros(len(tokens) + len(rows) + max_n, dtype=np.int64)
    flat[at] = (np.cumsum(held) * held)[tokens]
    windows = flat[at[:, None] + np.arange(max_n)]
    # column n-1 codes the window's first n ids
    digits = np.array([[0] * j + [powers[j]] * (max_n - j) for j in range(max_n)])
    codes = windows @ digits + (sets[row] * span)[:, None]
    real = np.minimum.accumulate(windows, axis=1) > 0
    keys = np.array(sorted(set(codes[:n_ref][real[:n_ref]].tolist())))
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    # source s's order-n keys are keys[edges[s, n-1]:edges[s, n]]; a row has a cell per key of its source
    edges = np.searchsorted(keys, np.arange(len(references))[:, None] * span + powers)
    width = (edges[:, -1] - edges[:, 0])[sets]
    shift = np.cumsum(width) - width - edges[sets, 0]  # a row's cell of key k: shift + k
    counts = np.bincount((shift[row][:, None] + pos)[real & (keys[pos] == codes)], minlength=int(width.sum()))
    key = np.arange(len(counts)) - np.repeat(shift, width)
    n_ref_cells = int(width[: len(ref_rows)].sum())
    # each key's counts in the i-th reference of its source, in row i; the
    # clipped counts then summed over each candidate's cells of each order
    limits = np.zeros((max(map(len, references)), len(keys)), dtype=np.int64)
    nth = np.repeat([i for refs in references for i in range(len(refs))], width[: len(ref_rows)])
    limits[nth, key[:n_ref_cells]] = counts[:n_ref_cells]
    total = np.concatenate([[0], np.cumsum(np.minimum(counts, limits.max(axis=0)[key]))])
    return np.diff(total[shift[len(ref_rows) :, None] + edges[sets[len(ref_rows) :]]], axis=1)


@functools.lru_cache(maxsize=1024)
def _sentence_bleu(c: int, clipped_by_order: tuple[int, ...], lengths: tuple[int, ...], smooth: bool) -> float:
    """BLEU of a length-c candidate from its clipped n-gram counts; memoized,
    since a search's candidates repeat few distinct arguments."""
    # on Python's `math`: numpy's log and exp differ from it in some last bits, which would move selection ties
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


def bleu_by_source(
    candidates: Sequence[Sequence[int]], owners: Sequence[int], references: Sequence[Sequence[Sequence[int]]],
    max_n: int = 4, smooth: bool = False,
) -> list[float]:
    """Sentence BLEU of each candidate against its own source's references,
    `references[owners[c]]`, on token ids (ints >= 0), with every source's
    n-grams counted and clipped in one pass; see `bleu`."""
    if not references or not all(refs and all(refs) for refs in references):
        raise ValueError("need at least one non-empty reference")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if any(not cand for cand in candidates):
        raise ValueError("empty candidate")
    if owners and not 0 <= min(owners) <= max(owners) < len(references):
        raise ValueError(f"owners must lie in [0, {len(references)})")
    lengths = [tuple(map(len, refs)) for refs in references]
    counts = _clipped_counts(candidates, owners, references, max_n).tolist()
    return [_sentence_bleu(len(cand), tuple(n), lengths[o], smooth) for cand, o, n in zip(candidates, owners, counts)]


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Sentence BLEU: clipped modified n-gram precision, uniform weights over
    the orders the candidate is long enough to support, brevity penalty, and
    add-one smoothing of zero-count precisions when `smooth` is set."""
    ids: dict[str, int] = {}
    refs = [[ids.setdefault(tok, len(ids)) for tok in ref] for ref in references]
    return bleu_by_source([[ids.setdefault(tok, len(ids)) for tok in candidate]], [0], [refs], max_n, smooth)[0]


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
    bleus = [bleu(tokens, token_lists[:1], smooth=True) for tokens in token_lists[1:]]
    embeddings = forward(encoder_params, TokenRows.from_tokens(token_lists, vocab)).out
    return DiversityReport(
        dist2=distinct_2(token_lists),
        bleu_vs_source=float(np.mean(bleus)),
        mean_pairwise_similarity=mean_pairwise_similarity(embeddings),
    )
