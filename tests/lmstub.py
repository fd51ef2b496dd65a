"""Tiny conditional-LM test doubles: an explicit-table LM for hand-traced
decodes and a hash-seeded random LM for fuzzing. Both are deterministic
across processes."""

import zlib

import numpy as np

from paraproto.decoding import diverse_beam_search

EOS = "</s>"


def decode_one(lm, source, num_beams, num_groups, diversity_penalty, max_len, constraints=None):
    """`diverse_beam_search` of one source: its groups of beams."""
    return diverse_beam_search(
        lm, [source], num_beams, num_groups, diversity_penalty, [max_len],
        None if constraints is None else [constraints],
    )[0]


class PrefixLM:
    """A test LM scored one text prefix at a time by `next_logprobs`, with
    the decoder's batch step built from those rows."""

    def condition(self, sources):
        return PrefixScorer(self, sources)


class PrefixScorer:
    """A `PrefixLM` conditioned on a search's sources: one `next_logprobs`
    row per prefix, stacked."""

    def __init__(self, lm, sources):
        self.lm, self.sources = lm, sources

    def next_logprobs_batch(self, owners, prefixes):
        rows = [
            self.lm.next_logprobs(self.sources[o], [self.lm.vocab[i] for i in p])
            for o, p in zip(owners, prefixes)
        ]
        return np.array([np.append(logprobs, eos) for logprobs, eos in rows])


class TableLM(PrefixLM):
    """LM defined by an explicit distribution per generated prefix.

    table maps a prefix tuple to {token: probability}; missing prefixes fall
    back to `default`. Tokens absent from a row get a tiny floor probability
    so scores stay finite.
    """

    def __init__(self, vocab, table, default=None):
        self.vocab = tuple(vocab)
        self.table = {tuple(k): dict(v) for k, v in table.items()}
        self.default = dict(default) if default else {t: 1.0 for t in self.vocab}

    def next_logprobs(self, source, prefix):
        row = self.table.get(tuple(prefix), self.default)
        floor = 1e-9
        weights = np.array([max(row.get(t, 0.0), floor) for t in self.vocab])
        eos = max(row.get(EOS, 0.0), floor)
        total = weights.sum() + eos
        logs = np.log(weights / total)
        return logs, float(np.log(eos / total))


class RandomLM(PrefixLM):
    """Deterministic pseudo-random LM: the distribution for every
    (source, prefix) pair is seeded from a stable hash of its repr."""

    def __init__(self, vocab, seed=0, eos_weight=0.5):
        self.vocab = tuple(vocab)
        self.seed = seed
        self.eos_weight = eos_weight

    def next_logprobs(self, source, prefix):
        key = repr((self.seed, tuple(source), tuple(prefix))).encode()
        rng = np.random.default_rng(zlib.crc32(key))
        weights = rng.random(len(self.vocab)) + 0.05
        eos = self.eos_weight * (rng.random() + 0.05)
        total = weights.sum() + eos
        return np.log(weights / total), float(np.log(eos / total))


def enumerate_sequences(lm, source, max_len, constraints):
    """Brute-force oracle: score every decodable sequence up to max_len under
    the same semantics as the beam decoder (EOS only after the first token;
    sequences of exactly max_len carry no EOS term; banned unigrams and
    banned source bigrams are unreachable)."""
    n = len(lm.vocab)
    banned_uni = {t for t in constraints.banned_unigrams}
    banned_bi = set(constraints.banned_bigrams)
    results = []

    def recurse(tokens, score):
        text = [lm.vocab[i] for i in tokens]
        logprobs, eos_lp = lm.next_logprobs(source, text)
        if tokens:
            # ending here via EOS (only reachable below max_len)
            results.append((score + eos_lp, tuple(tokens), True))
        for tid in range(n):
            tok = lm.vocab[tid]
            if tok in banned_uni:
                continue
            if tokens and (lm.vocab[tokens[-1]], tok) in banned_bi:
                continue
            new_tokens = tokens + (tid,)
            new_score = score + logprobs[tid]
            if len(new_tokens) == max_len:
                # truncated without an EOS term, like the decoder
                results.append((new_score, new_tokens, False))
            else:
                recurse(new_tokens, new_score)

    recurse((), 0.0)
    results.sort(key=lambda item: -item[0])
    return results
