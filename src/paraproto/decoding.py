"""Diverse beam search over any conditional LM with a batch step, with
decode-time constraints: unigram bans sampled from positional probability
curves, and bans on reproducing source bigrams. Includes a deterministic
bigram/synonym/copy mixture LM so constraint effects are observable at desk
scale, and per-group output selection by lowest BLEU against the source.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .encoder import tokenize
from .metrics import bleu_by_source

STRATEGIES = ("dbs", "dbs_unigram", "dbs_bigram", "stub_bt")
CURVES = ("flat", "down", "up")

# SynonymBigramLM builds one float64 (V+1, V+1) table per source of a search;
# `generate_paraphrase_batch` searches its sentences in blocks whose tables fit
# this many bytes (9 sources at V = 114).
DECODE_BLOCK_BYTES = 1024 * 1024


class Scorer(Protocol):
    """An LM conditioned on one search's sources. `next_logprobs_batch(owners,
    prefixes)` takes B prefixes as token-id sequences (indices into the LM's
    `vocab`), prefix i continuing source `owners[i]`, and returns one (B, V+1)
    array of finite log-probabilities, row i over every vocabulary token and
    then end-of-sequence in the last column, jointly normalized. It must be
    deterministic; the decoder makes one call per step."""

    def next_logprobs_batch(self, owners: Sequence[int], prefixes: Sequence[Sequence[int]]) -> np.ndarray: ...


class ConditionalLM(Protocol):
    """An LM over `vocab` whose `condition(sources)` returns a search's
    `Scorer`, called once per search; it leaves the LM as it was, so
    searches may share one LM."""

    vocab: tuple[str, ...]

    def condition(self, sources: Sequence[Sequence[str]]) -> Scorer: ...


@dataclass(frozen=True)
class ConstraintSet:
    banned_unigrams: frozenset[str] = frozenset()
    banned_bigrams: frozenset[tuple[str, str]] = frozenset()


class Beam(NamedTuple):
    """One decoded hypothesis. `score` includes any diversity penalties paid
    during selection; `raw_score` is the pure cumulative LM log-probability."""

    tokens: tuple[int, ...]
    score: float
    raw_score: float
    finished: bool

    def texts(self, vocab: Sequence[str]) -> list[str]:
        return [vocab[i] for i in self.tokens]


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
        check_mask(self.p_mask, self.curve)
        check_beams(self.num_beams, self.num_groups, self.diversity_penalty)
        if self.max_len < 0:
            raise ValueError("max_len must be >= 0 (0 means 2 * source length + 5)")

    def resolved_max_len(self, source_len: int) -> int:
        return self.max_len if self.max_len > 0 else 2 * source_len + 5


def check_mask(p_mask: float, curve: str) -> None:
    """Reject a ban probability outside [0, 1] (NaN included) or an unknown curve."""
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError(f"p_mask must be in [0, 1], got {p_mask}")
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}, expected one of {CURVES}")


def check_strategy(strategy: str) -> None:
    """Reject a strategy that is not one of STRATEGIES."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def check_beams(num_beams: int, num_groups: int, diversity_penalty: float) -> None:
    """The search shape: num_beams split evenly into num_groups >= 1 groups, and a finite penalty >= 0."""
    if num_groups < 1 or num_beams < 1 or num_beams % num_groups != 0:
        raise ValueError(f"num_beams={num_beams} must be a positive multiple of num_groups={num_groups}")
    if not 0 <= diversity_penalty < math.inf:
        raise ValueError(f"diversity_penalty must be finite and >= 0, got {diversity_penalty}")


def check_paraphrase_count(n_paraphrases: int, strategy: str, num_groups: int) -> None:
    """Reject fewer than one paraphrase, or for a DBS strategy (one per group) not num_groups."""
    if n_paraphrases < 1:
        raise ValueError(f"n_paraphrases must be >= 1, got {n_paraphrases}")
    if strategy != "stub_bt" and n_paraphrases != num_groups:
        raise ValueError(f"DBS strategies need n_paraphrases == num_groups, got {n_paraphrases} != {num_groups}")


def mask_probabilities(n_tokens: int, p_mask: float, curve: str) -> np.ndarray:
    """Per-position ban probability; every curve has mean exactly p_mask.

    The ramps run between 2*p_mask - hi and hi = min(1, 2*p_mask), so all
    values stay in [0, 1] while the area under the curve is preserved.
    """
    check_mask(p_mask, curve)
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
        return ConstraintSet()
    probs = mask_probabilities(len(source), p_mask, curve)
    draws = rng.random(len(source))
    banned = {tok for tok, p, u in zip(source, probs, draws) if u < p}
    return ConstraintSet(banned_unigrams=frozenset(banned))


def build_bigram_constraints(source: Sequence[str]) -> ConstraintSet:
    """Ban every adjacent token pair of the source."""
    pairs = {(a, b) for a, b in zip(source, source[1:])}
    return ConstraintSet(banned_bigrams=frozenset(pairs))


@functools.lru_cache(maxsize=8)
def _token_ids(vocab: tuple[str, ...]) -> dict[str, int]:
    """{token: id}, built once per vocabulary; callers only read it."""
    return {tok: i for i, tok in enumerate(vocab)}


def _banned_cells(vocab: tuple[str, ...], constraints: Sequence[ConstraintSet]) -> np.ndarray:
    """(S, V+1, V+1) masks of forbidden continuations, one per constraint
    set. Row: the previous token id, or V before the first token. Column: the
    next token id, or V for EOS, which is banned only before the first token."""
    index = _token_ids(vocab)
    n = len(vocab)
    banned = np.zeros((len(constraints), n + 1, n + 1), dtype=bool)
    banned[:, n, n] = True
    for mask, cs in zip(banned, constraints):
        mask[:, [index[tok] for tok in cs.banned_unigrams if tok in index]] = True
        for a, b in cs.banned_bigrams:
            if a in index and b in index:
                mask[index[a], index[b]] = True
    return banned


def diverse_beam_search(
    lm: ConditionalLM,
    sources: Sequence[Sequence[str]],
    num_beams: int,
    num_groups: int,
    diversity_penalty: float,
    max_lens: Sequence[int],
    constraints: Sequence[ConstraintSet] | None = None,
) -> list[list[list[Beam]]]:
    """Group-wise diverse beam search with a Hamming diversity penalty; plain
    beam search is its one-group case. Source s decodes for at most
    max_lens[s] steps under constraints[s] (none when omitted). Returns each
    source's groups of beams, equal to a search of that source alone.

    Groups decode in fixed order; at each step a candidate token in group g
    is penalized by diversity_penalty times the number of times earlier
    groups chose that token at the same step for the same source. Within a
    group, selection is standard beam search: the top num_beams / num_groups
    finite candidates, finished beams first on ties, then candidates in
    row-major order.

    All sources are searched together, under one `lm.condition` call whose
    scorer may hold a table per source (SynonymBigramLM's does), so callers
    bound how many they pass, as `generate_paraphrase_batch` does. A step
    scores every group's unfinished beams of every source with one scorer
    call, since they depend only on the previous step, in one (beams, V+1)
    matrix of negated scores; each group then adds its penalty to its own
    rows and takes each source's best candidates from that source's rows,
    one `argmin` per candidate, which for num_beams / num_groups candidates
    costs less than a sort. Beams are (tokens, score, raw_score, finished)
    tuples until returned.
    """
    check_beams(num_beams, num_groups, diversity_penalty)
    if constraints is None:
        constraints = [ConstraintSet()] * len(sources)
    if not len(sources) == len(max_lens) == len(constraints):
        raise ValueError("need one max_len and one constraint set per source")
    if any(m < 1 for m in max_lens):
        raise ValueError("max_len must be >= 1")
    n_vocab = len(lm.vocab)

    scorer = lm.condition(sources)
    group_size = num_beams // num_groups
    width = n_vocab + 1
    # row: source * width + previous token id
    banned = _banned_cells(lm.vocab, constraints).reshape(-1, width)
    counts = np.zeros((len(sources), width))  # tokens earlier groups chose this step; EOS's column stays 0
    source_counts = list(counts)  # its rows as views, once, not one counts[s] per pick
    start = ((), 0.0, 0.0, False)
    beams = [[[start] for _ in sources] for _ in range(num_groups)]
    # the step's unfinished beams and their sources, group by group and
    # within a group source by source, and each group's (source, unfinished
    # beams, finished beams)
    owners = [s for _ in range(num_groups) for s in range(len(sources))]
    active = [start] * len(owners)
    live = [[(s, [start], []) for s in range(len(sources))] for _ in range(num_groups)]
    step = 0
    while active:
        raw = scorer.next_logprobs_batch(owners, [b[0] for b in active])
        # negated scores, so the smallest ranks best and banned cells (+inf)
        # after every finite candidate
        neg = np.negative(raw)
        neg -= np.array([b[1] for b in active])[:, None]
        neg[banned[[s * width + (b[0][-1] if b[0] else n_vocab) for s, b in zip(owners, active)]]] = np.inf
        counts.fill(0.0)
        step += 1
        next_owners, next_active, next_live = [], [], []
        row = 0
        for g, entries in enumerate(live):
            next_live.append([])
            penalized = g > 0 and diversity_penalty > 0.0 and entries
            if penalized:
                penalties = diversity_penalty * counts  # one row per source
            for s, parents, finished in entries:
                block = neg[row : row + len(parents)]
                if penalized:
                    block += penalties[s]
                # the source's best group_size candidates in (score, index)
                # order, as a stable sort ranks them: argmin takes the first
                # of equal minima, and each pick is then set to +inf
                flat, picks = block.ravel(), []
                for _ in range(group_size):
                    idx = int(flat.argmin())
                    value = flat.item(idx)
                    if value == math.inf:
                        break
                    picks.append((value, idx))
                    flat[idx] = math.inf
                if finished:
                    # finished beams rank first on ties: as indices -len..-1
                    # they sort before every candidate of the same score
                    picks = sorted([(-b[1], k - len(finished)) for k, b in enumerate(finished)] + picks)
                chosen = source_counts[s]
                new_beams, new_parents, new_finished = [], [], []
                for value, idx in picks[:group_size]:
                    if idx < 0:
                        beam = finished[idx]
                        new_finished.append(beam)
                    else:
                        beam_i, token = divmod(idx, width)
                        tokens, _, raw_score, _ = parents[beam_i]
                        raw_score += raw.item(row + beam_i, token)
                        if token == n_vocab:
                            beam = (tokens, -value, raw_score, True)
                            new_finished.append(beam)
                        else:
                            beam = (tokens + (token,), -value, raw_score, False)
                            new_parents.append(beam)
                            chosen[token] += 1.0
                    new_beams.append(beam)
                if not new_beams:
                    raise ValueError("constraints exhaust vocabulary")
                beams[g][s] = new_beams
                row += len(parents)
                if new_parents and step < max_lens[s]:
                    next_live[g].append((s, new_parents, new_finished))
                    next_owners += [s] * len(new_parents)
                    next_active += new_parents
        owners, active, live = next_owners, next_active, next_live
    return [[list(map(Beam._make, beams)) for beams in groups] for groups in zip(*beams)]


def select_most_diverse(
    decoded: Sequence[Sequence[Sequence[Beam]]], sources: Sequence[Sequence[str]], vocab: Sequence[str]
) -> list[list[Beam]]:
    """For each source of one search, per group, the beam with the lowest
    BLEU against that source; ties -> highest LM score. `decoded[s]` holds
    source s's groups, as `diverse_beam_search` returns them. The beams of
    every source are scored in one `bleu_by_source` pass, on the token ids
    they hold; a source token outside `vocab` matches no beam token."""
    if not all(groups and all(groups) for groups in decoded):
        raise ValueError("empty beam group")
    index = _token_ids(tuple(vocab))
    references = [[[index.get(tok, len(vocab)) for tok in source]] for source in sources]
    beams = [(s, beam.tokens) for s, groups in enumerate(decoded) for group in groups for beam in group]
    bleus = iter(bleu_by_source([b for _, b in beams], [s for s, _ in beams], references, smooth=True))
    return [
        [group[min((next(bleus), -beam.raw_score, i) for i, beam in enumerate(group))[2]] for group in groups]
        for groups in decoded
    ]


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
    """Produce n_paraphrases texts for one sentence under a decoding strategy:
    the one-sentence case of `generate_paraphrase_batch`."""
    return generate_paraphrase_batch(lm, [sentence], n_paraphrases, strategy, config, rng)[0]


def generate_paraphrase_batch(
    lm: ConditionalLM,
    sentences: Sequence[str],
    n_paraphrases: int,
    strategy: str,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> list[list[str]]:
    """n_paraphrases texts for each sentence under a decoding strategy, equal
    to one `generate_paraphrases` call per sentence in order, with the same
    draws from `rng`: every sentence's unigram bans are drawn first, in input
    order, and then the sentences are decoded in blocks, one search each."""
    check_strategy(strategy)
    check_paraphrase_count(n_paraphrases, strategy, config.num_groups)
    sources = [tokenize(sentence) for sentence in sentences]
    if not all(sources):
        raise ValueError("cannot paraphrase an empty sentence")

    if strategy == "stub_bt":
        synonyms = getattr(lm, "synonyms", None)
        if synonyms is None:
            raise ValueError("stub_bt requires an LM that exposes a synonym table")
        return [
            [" ".join(toks) for toks in stub_backtranslate(source, synonyms, n_paraphrases)]
            for source in sources
        ]

    if strategy == "dbs_unigram":
        constraints = [build_unigram_constraints(s, config.p_mask, config.curve, rng) for s in sources]
    elif strategy == "dbs_bigram":
        constraints = [build_bigram_constraints(s) for s in sources]
    else:
        constraints = None

    # one search per block of DECODE_BLOCK_BYTES, so that the search's tables
    # stay capped and only the chosen texts outlive a block
    cap, out = max(1, DECODE_BLOCK_BYTES // (8 * (len(lm.vocab) + 1) ** 2)), []
    for i in range(0, len(sources), cap):
        chunk = sources[i : i + cap]
        decoded = diverse_beam_search(
            lm,
            chunk,
            num_beams=config.num_beams,
            num_groups=config.num_groups,
            diversity_penalty=config.diversity_penalty,
            max_lens=[config.resolved_max_len(len(s)) for s in chunk],
            constraints=None if constraints is None else constraints[i : i + cap],
        )
        for best in select_most_diverse(decoded, chunk, lm.vocab):
            out.append([" ".join(beam.texts(lm.vocab)) for beam in best])
    return out


# SynonymBigramLM: additive bigram smoothing, the mixture weights (they sum
# to 1) and the factor on a token's probability per earlier occurrence
SMOOTHING = 0.1
BIGRAM_WEIGHT = 0.30
COPY_WEIGHT = 0.45
SYNONYM_WEIGHT = 0.18
UNIFORM_WEIGHT = 0.07
REPEAT_DECAY = 0.3


def _bad_prefix_ids(n: int) -> ValueError:
    return ValueError(f"prefix token ids must lie in [0, {n})")


class SynonymBigramLM:
    """Deterministic conditional LM: an additive-smoothed bigram model
    interpolated with a pointer-style copy bias and synonym mass.

    The copy bias aligns the last generated token against the source (exact
    match or synonym match) and puts its mass on the source tokens that come
    next, with extra mass on their synonyms. When a decode-time ban blocks the
    natural continuation, that synonym mass is what wins, so constraints turn
    into visible substitutions instead of noise.
    """

    def __init__(self, corpus_texts: Sequence[str], synonyms: dict[str, tuple[str, ...]] | None = None):
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
        # rows: previous token or BOS = n; cols: next token or EOS = n; an n joins two sentences
        ids = np.array([i for sent in sentences for i in (n, *map(self._index.__getitem__, sent))] + [n])
        counts = np.bincount(ids[:-1] * (n + 1) + ids[1:], minlength=(n + 1) ** 2).reshape(n + 1, n + 1) + SMOOTHING
        self._bigram = counts / counts.sum(axis=1, keepdims=True)
        # base rows before any source mass: bigram plus uniform
        self._prior = BIGRAM_WEIGHT * self._bigram
        self._prior[:, :n] += UNIFORM_WEIGHT / n

    def condition(self, sources: Sequence[Sequence[str]]) -> SourceTables:
        """Condition on a search's sources: build each one's (V+1, V+1) table
        of base rows by last prefix token id, once (a search asks for the same
        few rows at every step), into one (S, V+1, V+1) stack, with each one's
        EOS-gate bounds, which keep outputs near the source length. The LM
        keeps none of it.

        A row's mass goes to target positions of its source, position
        len(source) standing for EOS: BOS targets position 0, and a token
        that occurs at position j, or is listed as a synonym of the word
        there, targets j + 1. The copy mass is one share per listing on the
        targets' tokens (an out-of-vocabulary one takes a share but no
        column); the synonym mass is spread over the union of their
        synonyms. A token row with no target gets the fallback: every
        in-vocabulary source token once, then the synonyms of every source
        token. The targets' mass is added in one `np.add.at`, which adds a
        cell's shares one after another, and the fallback's in two dense adds;
        either way a cell takes its copy shares, then its synonym share."""
        if not all(sources):
            raise ValueError("empty source")
        n, index = len(self.vocab), self._index
        width = n + 1
        tables = np.tile(self._prior, (len(sources), 1, 1))
        for table, source in zip(tables, sources):
            # each target position's column (-1 out of vocabulary, EOS past
            # the end) and in-vocabulary synonyms
            ids = [index.get(tok, -1) for tok in source] + [n]
            alts = [{index[a] for a in self.synonyms.get(tok, ()) if a in index} for tok in source] + [set()]
            # (row, target) listings: BOS targets position 0, and a token at
            # position j, or listed as a synonym of the word there, targets j + 1
            pairs = [(n, 0)] + [(t, j + 1) for j, i in enumerate(ids[:-1]) for t in {i, *alts[j]} - {-1}]
            rows, cols = np.array([(r, ids[k]) for r, k in pairs]).T
            listings = np.bincount(rows, minlength=width)
            syn = np.array(sorted({(r, a) for r, k in pairs for a in alts[k]}), dtype=np.intp).reshape(-1, 2)
            syn_rows, syn_cols = syn[:, 0], syn[:, 1]
            copy_rows, copy_cols = rows[cols >= 0], cols[cols >= 0]
            np.add.at(
                table,
                (np.concatenate([copy_rows, syn_rows]), np.concatenate([copy_cols, syn_cols])),
                np.concatenate([
                    COPY_WEIGHT / listings[copy_rows],
                    SYNONYM_WEIGHT / np.bincount(syn_rows, minlength=width)[syn_rows],
                ]),
            )
            # the token rows with no target, and the fallback's copy and synonym columns
            fallback = np.flatnonzero(listings[:n] == 0)[:, None]
            copy_all = np.array(list({i for i in ids[:-1] if i >= 0}), dtype=np.intp)
            syn_all = np.array(list(set().union(*alts)), dtype=np.intp)
            table[fallback, copy_all] += COPY_WEIGHT / max(len(copy_all), 1)
            table[fallback, syn_all] += SYNONYM_WEIGHT / max(len(syn_all), 1)
        eos_lo = [max(1, round(0.85 * len(s))) for s in sources]
        eos_hi = [len(s) + max(2, round(0.5 * len(s))) for s in sources]
        return SourceTables(tables.reshape(-1, width), eos_lo, eos_hi)

    def next_logprobs(self, source: Sequence[str], prefix: Sequence[str]) -> tuple[np.ndarray, float]:
        """The one-prefix case of `SourceTables.next_logprobs_batch`, on token
        strings: the log-probabilities of every vocabulary token, and of EOS,
        after `prefix`. A prefix token outside `vocab` raises `ValueError`."""
        try:
            ids = [self._index[tok] for tok in prefix]
        except KeyError as exc:
            raise ValueError(f"prefix token {exc.args[0]!r} is not in the vocabulary") from None
        logs = self.condition([source]).next_logprobs_batch([0], [ids])
        return logs[0, :-1], float(logs[0, -1])


@dataclass(frozen=True, eq=False)
class SourceTables:
    """A `SynonymBigramLM` conditioned on one search's S sources, as
    `SynonymBigramLM.condition` builds it: every source's base rows, stacked
    (row: source * (V+1) + last prefix token id, or V before the first), and
    each source's EOS-gate bounds on the prefix length."""

    rows: np.ndarray
    eos_lo: list[int]
    eos_hi: list[int]

    def next_logprobs_batch(self, owners: Sequence[int], prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Scores B token-id prefixes (integer indices into `vocab`), prefix i
        continuing source `owners[i]`: a (B, V+1) array of log-probabilities,
        EOS in the last column. An owner outside [0, S), or an id outside
        [0, V) or not an integer, raises `ValueError`."""
        n_sources, n = len(self.eos_lo), self.rows.shape[1] - 1
        if owners and not 0 <= min(owners) <= max(owners) < n_sources:
            raise ValueError(f"owners must lie in [0, {n_sources})")
        try:
            probs = self.rows[[o * (n + 1) + (p[-1] if len(p) else n) for o, p in zip(owners, prefixes)]]
        except IndexError:  # a last id that indexes no row: a float, or far out of range
            raise _bad_prefix_ids(n) from None
        # damp tokens already generated, so decodes do not loop: `multiply.at`
        # multiplies a cell once per occurrence, so a token seen c times gets
        # the decay c times
        owner = np.repeat(np.arange(len(prefixes)), [len(p) for p in prefixes])
        # the last ids have picked table rows already, where an id outside
        # [0, n) reads a wrong row; an unsigned `array` takes only integers,
        # and no negative one
        try:
            ids = np.frombuffer(array("Q", itertools.chain.from_iterable(prefixes)), dtype=np.ulonglong)
        except (TypeError, OverflowError):
            raise _bad_prefix_ids(n) from None
        if ids.size and ids.max() >= n:
            raise _bad_prefix_ids(n)
        np.multiply.at(probs, (owner, ids), REPEAT_DECAY)

        lo, hi = self.eos_lo, self.eos_hi
        probs[:, n] *= [1e-4 if len(p) < lo[o] else 1.0 if len(p) <= hi[o] else 25.0 for p, o in zip(prefixes, owners)]
        probs /= probs.sum(axis=1, keepdims=True)
        return np.log(probs, out=probs)
