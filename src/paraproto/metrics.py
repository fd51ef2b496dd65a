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
from .numerics import COSINE
from .protonet import _pairwise_distances


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
    (U+1)**n) for order n when no id is 0; it must stay below 2**62."""
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
    if powers[-1] >= 2**62:
        raise ValueError("too many distinct reference tokens to code n-grams in 64 bits")
    # each row's ids with a 0 after it, and from each token the next max_n ids
    row = np.repeat(np.arange(len(rows)), lengths)
    at = np.arange(len(tokens)) + row
    flat = np.zeros(len(tokens) + len(rows) + max_n, dtype=np.int64)
    flat[at] = (np.cumsum(held) * held)[tokens]
    windows = flat[at[:, None] + np.arange(max_n)]
    # column n-1 codes the window's first n ids, or is -1 if one is 0
    digits = np.array([[0] * j + [powers[j]] * (max_n - j) for j in range(max_n)])
    codes = np.where(np.minimum.accumulate(windows, axis=1) > 0, windows @ digits, -1)
    # an n-gram's number is where it first occurs among the references',
    # sorted; one sort counts each (row, order) slot's n-grams
    keys = np.sort(codes[:n_ref][codes[:n_ref] >= 0])
    gram = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    slots = (row * max_n)[:, None] + np.arange(max_n)
    cells, counts = np.unique((slots * len(keys) + gram)[keys[gram] == codes], return_counts=True)
    cell_slot, cell_gram = np.divmod(cells, len(keys))
    # a (source, n-gram) pair's limit: its largest count in one reference, or 0
    n_ref_cells = int(np.searchsorted(cell_slot, len(ref_rows) * max_n))
    pairs = sets[cell_slot // max_n] * len(keys) + cell_gram
    ref_pairs = np.sort(pairs[:n_ref_cells])
    pair = np.minimum(np.searchsorted(ref_pairs, pairs), n_ref_cells - 1)
    limits = np.zeros(n_ref_cells, dtype=np.int64)
    np.maximum.at(limits, pair[:n_ref_cells], counts[:n_ref_cells])
    clipped = np.minimum(counts, limits[pair] * (ref_pairs[pair] == pairs))
    return np.bincount(cell_slot, clipped, len(rows) * max_n).astype(np.int64).reshape(-1, max_n)[len(ref_rows) :]


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
    sims = 1.0 - _pairwise_distances(vectors, vectors, COSINE)[0]
    return float(sims[np.triu_indices(len(embeddings), k=1)].mean())


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
