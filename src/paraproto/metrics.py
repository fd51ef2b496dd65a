"""Diversity and similarity measurement: distinct-2 lexical diversity,
sentence BLEU with brevity penalty and optional add-one smoothing, and mean
pairwise cosine similarity of sentence embeddings."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, Vocabulary, encode_batch, tokenize


@dataclass
class DiversityReport:
    dist2: float
    bleu_vs_source: float
    mean_pairwise_similarity: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DiversityReport":
        return cls(**json.loads(text))


def distinct_2(sentences: Sequence[Sequence[str]]) -> float:
    """Distinct adjacent bigrams across all sentences over total token count."""
    total_tokens = sum(len(s) for s in sentences)
    if total_tokens == 0:
        raise ValueError("distinct-2 undefined on an empty corpus")
    bigrams = {(a, b) for sent in sentences for a, b in zip(sent, sent[1:])}
    return len(bigrams) / total_tokens


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


@dataclass(frozen=True)
class BleuReference:
    """The reference side of sentence BLEU, counted once for any number of
    candidates: per n-gram order 1..max_n, the most times each n-gram occurs
    in any one reference, and the reference lengths."""

    max_counts: tuple[Counter, ...]
    lengths: tuple[int, ...]


def bleu_reference(references: Sequence[Sequence[str]], max_n: int = 4) -> BleuReference:
    if not references or any(not r for r in references):
        raise ValueError("need at least one non-empty reference")
    max_counts = []
    for n in range(1, max_n + 1):
        max_ref: Counter = Counter()
        for ref in references:
            for gram, count in _ngram_counts(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        max_counts.append(max_ref)
    return BleuReference(tuple(max_counts), tuple(len(ref) for ref in references))


def bleu_score(candidate: Sequence[str], reference: BleuReference, smooth: bool = False) -> float:
    """Sentence BLEU of `candidate` against a counted reference; see `bleu`."""
    if not candidate:
        raise ValueError("empty candidate")

    log_precisions = []
    for n, max_ref in enumerate(reference.max_counts, start=1):
        total = len(candidate) - n + 1
        if total < 1:
            break
        cand_counts = _ngram_counts(candidate, n)
        clipped = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        if clipped == 0:
            if not smooth:
                return 0.0
            log_precisions.append(math.log(1.0 / (total + 1)))
        else:
            log_precisions.append(math.log(clipped / total))

    c = len(candidate)
    # closest reference length; ties favor the shorter reference
    r = min((abs(length - c), length) for length in reference.lengths)[1]
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(sum(log_precisions) / len(log_precisions))


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Sentence BLEU: clipped modified n-gram precision, uniform weights over
    the orders the candidate is long enough to support, brevity penalty, and
    add-one smoothing of zero-count precisions when `smooth` is set."""
    return bleu_score(candidate, bleu_reference(references, max_n), smooth)


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
    bleus = [bleu_score(toks, reference, smooth=True) for toks in token_lists[1:]]
    embeddings = encode_batch(encoder_params, token_lists, vocab)
    return DiversityReport(
        dist2=distinct_2(token_lists),
        bleu_vs_source=float(np.mean(bleus)),
        mean_pairwise_similarity=mean_pairwise_similarity(embeddings),
    )
