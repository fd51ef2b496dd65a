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
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smooth: bool = False,
) -> float:
    """Sentence BLEU: clipped modified n-gram precision, uniform weights over
    the orders the candidate is long enough to support, brevity penalty, and
    add-one smoothing of zero-count precisions when `smooth` is set."""
    if not candidate:
        raise ValueError("empty candidate")
    if not references or any(not r for r in references):
        raise ValueError("need at least one non-empty reference")

    log_precisions = []
    for n in range(1, max_n + 1):
        total = len(candidate) - n + 1
        if total < 1:
            break
        cand_counts = _ngram_counts(candidate, n)
        max_ref: Counter = Counter()
        for ref in references:
            for gram, count in _ngram_counts(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        if clipped == 0:
            if not smooth:
                return 0.0
            log_precisions.append(math.log(1.0 / (total + 1)))
        else:
            log_precisions.append(math.log(clipped / total))

    c = len(candidate)
    # closest reference length; ties favor the shorter reference
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(sum(log_precisions) / len(log_precisions))


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
    source_tokens = token_lists[0]
    bleus = [bleu(toks, [source_tokens], smooth=True) for toks in token_lists[1:]]
    embeddings = encode_batch(encoder_params, token_lists, vocab)
    return DiversityReport(
        dist2=distinct_2(token_lists),
        bleu_vs_source=float(np.mean(bleus)),
        mean_pairwise_similarity=mean_pairwise_similarity(embeddings),
    )
