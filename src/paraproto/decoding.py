"""Conditional-LM-agnostic beam search and diverse beam search with
decode-time constraints: unigram bans sampled from positional probability
curves, and bans on reproducing source bigrams. Includes a deterministic
bigram/synonym/copy mixture LM so constraint effects are observable at desk
scale, and per-group output selection by lowest BLEU against the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .configio import dataclass_from_kv, dataclass_to_kv, format_kv, parse_kv_text
from .encoder import tokenize
from .metrics import bleu

STRATEGIES = ("dbs", "dbs_unigram", "dbs_bigram", "stub_bt")
CURVES = ("flat", "down", "up")


class ConditionalLM(Protocol):
    """Scores continuations of a generated prefix, conditioned on a source.

    `next_logprobs` must return finite log-probabilities for every vocabulary
    token plus end-of-sequence, jointly normalized, and must be deterministic.
    """

    vocab: tuple[str, ...]

    def next_logprobs(
        self, source: Sequence[str], prefix: Sequence[str]
    ) -> tuple[np.ndarray, float]: ...


@dataclass(frozen=True)
class ConstraintSet:
    banned_unigrams: frozenset[str] = frozenset()
    banned_bigrams: frozenset[tuple[str, str]] = frozenset()

    @classmethod
    def none(cls) -> "ConstraintSet":
        return cls()


@dataclass(frozen=True)
class Beam:
    """One decoded hypothesis. `score` includes any diversity penalties payed
    during selection; `raw_score` is the pure cumulative LM log-probability."""

    tokens: tuple[int, ...]
    score: float
    raw_score: float
    finished: bool

    def texts(self, vocab: Sequence[str]) -> list[str]:
        return [vocab[i] for i in self.tokens]


@dataclass
class BeamGroup:
    index: int
    beams: list[Beam]


@dataclass
class DecodeConfig:
    """Decoding knobs shared by the CLI and the experiment loop."""

    num_beams: int = 15
    num_groups: int = 5
    diversity_penalty: float = 0.5
    p_mask: float = 0.7
    curve: str = "flat"
    max_len: int = 0  # 0 -> 2 * source length + 5

    def __post_init__(self):
        if self.curve not in CURVES:
            raise ValueError(f"unknown curve {self.curve!r}, expected one of {CURVES}")
        if not 0.0 <= self.p_mask <= 1.0:
            raise ValueError("p_mask must be in [0, 1]")
        if self.diversity_penalty < 0:
            raise ValueError("diversity_penalty must be >= 0")
        if self.num_groups < 1 or self.num_beams < 1 or self.num_beams % self.num_groups != 0:
            raise ValueError(
                f"num_beams={self.num_beams} must be a positive multiple of "
                f"num_groups={self.num_groups} >= 1"
            )
        if self.max_len < 0:
            raise ValueError("max_len must be >= 0 (0 means 2 * source length + 5)")

    def resolved_max_len(self, source_len: int) -> int:
        return self.max_len if self.max_len > 0 else 2 * source_len + 5

    def to_text(self) -> str:
        return format_kv(dataclass_to_kv(self))

    @classmethod
    def from_text(cls, text: str) -> "DecodeConfig":
        return dataclass_from_kv(cls, parse_kv_text(text))


def mask_probabilities(n_tokens: int, p_mask: float, curve: str) -> np.ndarray:
    """Per-position ban probability; every curve has mean exactly p_mask.

    The ramps run between 2*p_mask - hi and hi = min(1, 2*p_mask), so all
    values stay in [0, 1] while the area under the curve is preserved.
    """
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError("p_mask must be in [0, 1]")
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}")
    if n_tokens == 1 or curve == "flat":
        return np.full(n_tokens, p_mask)
    hi = min(1.0, 2.0 * p_mask)
    lo = 2.0 * p_mask - hi
    ramp = np.linspace(hi, lo, n_tokens)
    return ramp if curve == "down" else ramp[::-1]


def build_unigram_constraints(
    source: Sequence[str], p_mask: float, curve: str, rng: np.random.Generator
) -> ConstraintSet:
    """Ban each source token with its positional probability."""
    if not source:
        return ConstraintSet.none()
    probs = mask_probabilities(len(source), p_mask, curve)
    draws = rng.random(len(source))
    banned = {tok for tok, p, u in zip(source, probs, draws) if u < p}
    return ConstraintSet(banned_unigrams=frozenset(banned))


def build_bigram_constraints(source: Sequence[str]) -> ConstraintSet:
    """Ban every adjacent token pair of the source."""
    pairs = {(a, b) for a, b in zip(source, source[1:])}
    return ConstraintSet(banned_bigrams=frozenset(pairs))


def _index_constraints(
    vocab: Sequence[str], constraints: ConstraintSet
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    index = {tok: i for i, tok in enumerate(vocab)}
    banned_mask = np.zeros(len(vocab), dtype=bool)
    for tok in constraints.banned_unigrams:
        if tok in index:
            banned_mask[index[tok]] = True
    bigram_next: dict[int, list[int]] = {}
    for a, b in constraints.banned_bigrams:
        if a in index and b in index:
            bigram_next.setdefault(index[a], []).append(index[b])
    return banned_mask, {k: np.array(sorted(v)) for k, v in bigram_next.items()}


def _advance_beams(
    lm: ConditionalLM,
    source: Sequence[str],
    beams: list[Beam],
    width: int,
    banned_mask: np.ndarray,
    bigram_next: dict[int, np.ndarray],
    penalty_counts: np.ndarray | None,
    diversity_penalty: float,
) -> tuple[list[Beam], list[int]]:
    """One decode step: expand unfinished beams, keep the top `width`.

    Returns the new beam list (sorted by descending selection score) and the
    token ids newly appended this step (for diversity bookkeeping).
    """
    n_vocab = len(lm.vocab)
    finished = [b for b in beams if b.finished]
    active = [b for b in beams if not b.finished]
    if not active:
        return beams, []

    # candidate matrix: one row per active beam, columns = tokens + EOS
    rows = []
    raw_rows = []
    for beam in active:
        logprobs, eos_lp = lm.next_logprobs(source, beam.texts(lm.vocab))
        scores = beam.score + logprobs
        scores[banned_mask] = -np.inf
        if beam.tokens and beam.tokens[-1] in bigram_next:
            scores[bigram_next[beam.tokens[-1]]] = -np.inf
        if penalty_counts is not None and diversity_penalty > 0.0:
            scores = scores - diversity_penalty * penalty_counts
        eos_score = beam.score + eos_lp if beam.tokens else -np.inf
        rows.append(np.append(scores, eos_score))
        raw_rows.append(np.append(logprobs, eos_lp))

    flat = np.concatenate([np.array([b.score for b in finished]), np.ravel(rows)])
    order = np.argsort(-flat, kind="stable")

    new_beams: list[Beam] = []
    chosen_tokens: list[int] = []
    n_finished = len(finished)
    for idx in order:
        if len(new_beams) >= width:
            break
        if not np.isfinite(flat[idx]):
            continue
        if idx < n_finished:
            new_beams.append(finished[idx])
            continue
        cell = idx - n_finished
        beam_i, token_id = divmod(int(cell), n_vocab + 1)
        parent = active[beam_i]
        raw = parent.raw_score + float(raw_rows[beam_i][token_id])
        if token_id == n_vocab:  # EOS
            new_beams.append(
                Beam(tokens=parent.tokens, score=float(flat[idx]), raw_score=raw, finished=True)
            )
        else:
            new_beams.append(
                Beam(
                    tokens=parent.tokens + (token_id,),
                    score=float(flat[idx]),
                    raw_score=raw,
                    finished=False,
                )
            )
            chosen_tokens.append(token_id)
    if not new_beams:
        raise ValueError("constraints exhaust vocabulary")
    return new_beams, chosen_tokens


def beam_search(
    lm: ConditionalLM,
    source: Sequence[str],
    beam_width: int,
    max_len: int,
    constraints: ConstraintSet = ConstraintSet.none(),
) -> list[Beam]:
    """Breadth-wise beam decoding; returns beams ranked by cumulative score."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    banned_mask, bigram_next = _index_constraints(lm.vocab, constraints)
    if banned_mask.all():
        raise ValueError("constraints exhaust vocabulary")
    beams = [Beam(tokens=(), score=0.0, raw_score=0.0, finished=False)]
    for _ in range(max_len):
        if all(b.finished for b in beams):
            break
        beams, _ = _advance_beams(
            lm, source, beams, beam_width, banned_mask, bigram_next, None, 0.0
        )
    return beams


def diverse_beam_search(
    lm: ConditionalLM,
    source: Sequence[str],
    num_beams: int,
    num_groups: int,
    diversity_penalty: float,
    max_len: int,
    constraints: ConstraintSet = ConstraintSet.none(),
) -> list[BeamGroup]:
    """Group-wise diverse beam search with a Hamming diversity penalty.

    Groups decode in fixed order; at each step a candidate token in group g
    is penalized by diversity_penalty times the number of times earlier
    groups chose that token at the same step. Within a group, selection is
    standard beam search.
    """
    if num_beams < 1 or num_groups < 1 or num_beams % num_groups != 0:
        raise ValueError(f"num_beams={num_beams} must be a positive multiple of num_groups={num_groups}")
    if diversity_penalty < 0:
        raise ValueError("diversity_penalty must be >= 0")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    banned_mask, bigram_next = _index_constraints(lm.vocab, constraints)
    if banned_mask.all():
        raise ValueError("constraints exhaust vocabulary")

    group_size = num_beams // num_groups
    groups: list[list[Beam]] = [
        [Beam(tokens=(), score=0.0, raw_score=0.0, finished=False)] for _ in range(num_groups)
    ]
    for _ in range(max_len):
        if all(b.finished for group in groups for b in group):
            break
        counts = np.zeros(len(lm.vocab))
        for g in range(num_groups):
            groups[g], chosen = _advance_beams(
                lm,
                source,
                groups[g],
                group_size,
                banned_mask,
                bigram_next,
                counts if g > 0 else None,
                diversity_penalty,
            )
            for token_id in chosen:
                counts[token_id] += 1.0
    return [BeamGroup(index=g, beams=groups[g]) for g in range(num_groups)]


def select_most_diverse(
    group_beams: Sequence[Beam], source: Sequence[str], vocab: Sequence[str]
) -> Beam:
    """Beam with the lowest BLEU against the source; ties -> highest LM score."""
    if not group_beams:
        raise ValueError("empty beam group")
    scored = [
        (bleu(beam.texts(vocab), [list(source)], smooth=True), -beam.raw_score, i)
        for i, beam in enumerate(group_beams)
    ]
    _, _, best = min(scored)
    return group_beams[best]


def stub_backtranslate(
    source: Sequence[str], synonyms: dict[str, tuple[str, ...]], n_variants: int
) -> list[list[str]]:
    """Deterministic back-translation stand-in: near-copies of the source with
    synonyms substituted at variant-dependent positions."""
    variants = []
    for m in range(n_variants):
        out = list(source)
        for i, tok in enumerate(source):
            options = synonyms.get(tok)
            if options and i % n_variants == m:
                out[i] = options[m % len(options)]
        variants.append(out)
    return variants


def generate_paraphrases(
    lm: ConditionalLM,
    sentence: str,
    n_paraphrases: int,
    strategy: str,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> list[str]:
    """Produce n_paraphrases texts for one sentence under a decoding strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    source = tokenize(sentence)
    if not source:
        raise ValueError("cannot paraphrase an empty sentence")

    if strategy == "stub_bt":
        synonyms = getattr(lm, "synonyms", None)
        if synonyms is None:
            raise ValueError("stub_bt requires an LM that exposes a synonym table")
        return [" ".join(toks) for toks in stub_backtranslate(source, synonyms, n_paraphrases)]

    if n_paraphrases != config.num_groups:
        raise ValueError(
            f"DBS strategies need n_paraphrases == num_groups, got {n_paraphrases} != {config.num_groups}"
        )
    if strategy == "dbs_unigram":
        constraints = build_unigram_constraints(source, config.p_mask, config.curve, rng)
    elif strategy == "dbs_bigram":
        constraints = build_bigram_constraints(source)
    else:
        constraints = ConstraintSet.none()

    groups = diverse_beam_search(
        lm,
        source,
        num_beams=config.num_beams,
        num_groups=config.num_groups,
        diversity_penalty=config.diversity_penalty,
        max_len=config.resolved_max_len(len(source)),
        constraints=constraints,
    )
    outputs = []
    for group in groups:
        best = select_most_diverse(group.beams, source, lm.vocab)
        outputs.append(" ".join(best.texts(lm.vocab)))
    return outputs


class SynonymBigramLM:
    """Deterministic conditional LM: an additive-smoothed bigram model
    interpolated with a pointer-style copy bias and synonym mass.

    The copy bias aligns the last generated token against the source (exact
    match or synonym match) and puts its mass on the source tokens that come
    next, with extra mass on their synonyms. When a decode-time ban blocks the
    natural continuation, that synonym mass is what wins, so constraints turn
    into visible substitutions instead of noise.
    """

    def __init__(
        self,
        corpus_texts: Sequence[str],
        synonyms: dict[str, tuple[str, ...]] | None = None,
        smoothing: float = 0.1,
        bigram_weight: float = 0.30,
        copy_weight: float = 0.45,
        synonym_weight: float = 0.18,
        uniform_weight: float = 0.07,
        repeat_decay: float = 0.3,
    ):
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if not 0.0 < repeat_decay <= 1.0:
            raise ValueError("repeat_decay must be in (0, 1]")
        weights = (bigram_weight, copy_weight, synonym_weight, uniform_weight)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        self.synonyms = dict(synonyms) if synonyms else {}
        tokens: set[str] = set()
        sentences = [tokenize(t) for t in corpus_texts]
        for sent in sentences:
            tokens.update(sent)
        for word, alts in self.synonyms.items():
            tokens.add(word)
            tokens.update(alts)
        self.vocab: tuple[str, ...] = tuple(sorted(tokens))
        if not self.vocab:
            raise ValueError("empty corpus")
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        n = len(self.vocab)
        self._bos = n
        # rows: previous token (plus BOS); cols: next token (plus EOS)
        counts = np.zeros((n + 1, n + 1))
        for sent in sentences:
            ids = [self._index[t] for t in sent]
            prev = self._bos
            for i in ids:
                counts[prev, i] += 1.0
                prev = i
            counts[prev, n] += 1.0
        counts += smoothing
        self._bigram = counts / counts.sum(axis=1, keepdims=True)
        self._smoothing = smoothing
        self._w_bigram = bigram_weight
        self._w_copy = copy_weight
        self._w_syn = synonym_weight
        self._w_unif = uniform_weight
        self._repeat_decay = repeat_decay

    def _continuations(self, source: Sequence[str], prefix: Sequence[str]) -> tuple[list[str], bool]:
        """Source tokens that plausibly come next, by aligning the last
        generated token against source positions (exact or synonym match).
        The flag reports whether the aligned position is the end of source."""
        if not prefix:
            return [source[0]], False
        prev = prefix[-1]
        nexts: list[str] = []
        at_end = False
        for i, tok in enumerate(source):
            if tok == prev or prev in self.synonyms.get(tok, ()):
                if i + 1 < len(source):
                    nexts.append(source[i + 1])
                else:
                    at_end = True
        return nexts, at_end

    def next_logprobs(
        self, source: Sequence[str], prefix: Sequence[str]
    ) -> tuple[np.ndarray, float]:
        n = len(self.vocab)
        prev = self._index.get(prefix[-1], self._bos) if prefix else self._bos
        probs = self._w_bigram * self._bigram[prev].copy()
        probs[:n] += self._w_unif / n

        nexts, at_end = self._continuations(source, prefix)
        if nexts or at_end:
            share = self._w_copy / (len(nexts) + (1 if at_end else 0))
            for tok in nexts:
                if tok in self._index:
                    probs[self._index[tok]] += share
            if at_end:
                probs[n] += share
            syn_ids = sorted(
                {
                    self._index[alt]
                    for tok in nexts
                    for alt in self.synonyms.get(tok, ())
                    if alt in self._index
                }
            )
            if syn_ids:
                probs[syn_ids] += self._w_syn / len(syn_ids)
        else:
            # no alignment: fall back to an unordered copy bias over the source
            src_ids = sorted({self._index[t] for t in source if t in self._index})
            if src_ids:
                probs[src_ids] += self._w_copy / len(src_ids)
            syn_ids = sorted(
                {
                    self._index[alt]
                    for tok in source
                    for alt in self.synonyms.get(tok, ())
                    if alt in self._index
                }
            )
            if syn_ids:
                probs[syn_ids] += self._w_syn / len(syn_ids)

        # damp tokens already generated, so decodes do not loop
        if prefix and self._repeat_decay < 1.0:
            for tok in prefix:
                i = self._index.get(tok)
                if i is not None:
                    probs[i] *= self._repeat_decay

        # length-gated EOS keeps outputs near the source length
        src_len = max(len(source), 1)
        gen_len = len(prefix)
        if gen_len < max(1, round(0.85 * src_len)):
            gate = 1e-4
        elif gen_len <= src_len + max(2, round(0.5 * src_len)):
            gate = 1.0
        else:
            gate = 25.0
        probs[n] *= gate
        probs /= probs.sum()
        logs = np.log(probs)
        return logs[:n], float(logs[n])
