import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto import metrics
from paraproto.encoder import EncoderParams, Vocabulary
from paraproto.decoding import Beam, select_most_diverse
from paraproto.metrics import (
    bleu,
    distinct_2,
    diversity_report,
    mean_pairwise_similarity,
)

tokens_st = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=12)


class TestDistinct2:
    def test_hand_counted(self):
        # "a b a b": bigrams {(a,b), (b,a)} over 4 tokens
        assert distinct_2([["a", "b", "a", "b"]]) == pytest.approx(0.5)

    def test_all_unique_tokens(self):
        sent = [f"t{i}" for i in range(6)]
        assert distinct_2([sent]) == pytest.approx(5 / 6)

    def test_duplication_halves_value(self):
        sent = ["x", "y", "z"]
        single = distinct_2([sent])
        doubled = distinct_2([sent, sent])
        assert doubled == pytest.approx(single / 2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            distinct_2([])
        with pytest.raises(ValueError):
            distinct_2([[], []])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(tokens_st, min_size=1, max_size=5))
    def test_reorder_invariant(self, corpus):
        value = distinct_2(corpus)
        assert distinct_2(corpus[::-1]) == pytest.approx(value)
        assert 0.0 <= value <= 1.0


class TestBleu:
    def test_identity_is_one(self):
        assert bleu(["a", "b", "c"], [["a", "b", "c"]]) == pytest.approx(1.0)

    def test_disjoint_without_smoothing_is_zero(self):
        assert bleu(["a", "b"], [["x", "y"]], smooth=False) == 0.0

    def test_clipped_unigram_precision(self):
        # candidate "the the the" vs reference "the cat": clipped p1 = 1/3
        score = bleu(["the", "the", "the"], [["the", "cat"]], max_n=1, smooth=False)
        brevity = 1.0  # candidate longer than reference
        assert score == pytest.approx(brevity * (1 / 3))

    def test_brevity_penalty_applied(self):
        # unigram-only: p1 = 1, but candidate is half the reference length
        score = bleu(["a"], [["a", "b"]], max_n=1, smooth=False)
        assert score == pytest.approx(math.exp(1 - 2 / 1))

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [["a"]])

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], [])

    def test_smoothing_gives_nonzero_on_partial_overlap(self):
        score = bleu(["a", "x"], [["a", "b"]], smooth=True)
        assert 0.0 < score < 1.0

    @settings(max_examples=60, deadline=None)
    @given(tokens_st)
    def test_self_bleu_is_one(self, toks):
        assert bleu(toks, [toks], smooth=True) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(tokens_st, tokens_st)
    def test_bounded(self, cand, ref):
        for smooth in (False, True):
            score = bleu(cand, [ref], smooth=smooth)
            assert 0.0 <= score <= 1.0 + 1e-12


def counter_bleu(candidate, references, max_n=4, smooth=False):
    """Sentence BLEU the way it was first written here: a Counter of n-gram
    tuples per order for each reference and for the candidate."""

    def ngrams(tokens, n):
        return Counter(zip(*(tokens[i:] for i in range(n))))

    max_ref = []
    for n in range(1, max_n + 1):
        most = Counter()
        for ref in references:
            for gram, count in ngrams(ref, n).items():
                most[gram] = max(most[gram], count)
        max_ref.append(most)
    log_precisions = []
    for n, most in enumerate(max_ref, start=1):
        total = len(candidate) - n + 1
        if total < 1:
            break
        clipped = sum(min(count, most[gram]) for gram, count in ngrams(candidate, n).items())
        if clipped == 0:
            if not smooth:
                return 0.0
            log_precisions.append(math.log(1.0 / (total + 1)))
        else:
            log_precisions.append(math.log(clipped / total))
    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(sum(log_precisions) / len(log_precisions))


def assert_picks_match_oracle(decoded, sources, vocab, picks):
    """Each source's picks equal a selection of that source alone, scored by `counter_bleu`."""
    assert len(picks) == len(decoded)
    for source, groups, chosen in zip(sources, decoded, picks):
        assert len(chosen) == len(groups)
        for group, beam in zip(groups, chosen):
            oracle = min((counter_bleu([vocab[i] for i in b.tokens], [source], smooth=True), -b.raw_score, i)
                         for i, b in enumerate(group))
            assert beam is group[oracle[2]]


# candidates draw from a vocabulary with tokens ("x", "y") no reference
# holds, references from one with a token ("z") no candidate holds; four
# shared letters make repeated, clipped n-grams common
candidate_st = st.lists(st.sampled_from("abcdxy"), min_size=1, max_size=12)
reference_st = st.lists(st.sampled_from("abcdz"), min_size=1, max_size=10)


class TestBatchedBleu:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(candidate_st, min_size=1, max_size=6), st.lists(reference_st, min_size=1, max_size=3),
           st.integers(1, 5), st.booleans())
    def test_equals_counter_bleu(self, candidates, references, max_n, smooth):
        expected = [counter_bleu(c, references, max_n, smooth) for c in candidates]
        assert [bleu(c, references, max_n, smooth) for c in candidates] == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_selection_matches_oracle_on_ties(self, data):
        vocab = ("a", "b", "c", "x")
        source = data.draw(reference_st)
        # few distinct token sequences and raw scores, so exact BLEU ties
        # and raw-score ties are common
        pool = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
                                  min_size=1, max_size=3))
        groups = data.draw(st.lists(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((-1.0, -2.0))),
                                             min_size=1, max_size=4), min_size=1, max_size=4))
        beams = [[Beam(tokens, raw, raw, True) for tokens, raw in group] for group in groups]
        [best] = select_most_diverse([beams], [source], vocab)
        for group, chosen in zip(beams, best):
            oracle = min((counter_bleu([vocab[i] for i in b.tokens], [source], smooth=True), -b.raw_score, i)
                         for i, b in enumerate(group))
            assert chosen is group[oracle[2]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_pass_selection_matches_per_source_oracle(self, data):
        vocab = ("a", "and", "b", "c", "d", "x")
        sentence = st.lists(st.sampled_from("abcd"), min_size=1, max_size=6)
        # single sentences, joined ones (repeated tokens), and out-of-vocabulary words at both ends
        source = st.one_of(
            sentence,
            st.tuples(sentence, sentence).map(lambda ab: [*ab[0], "and", *ab[1]]),
            st.tuples(sentence, st.sampled_from(("zzz", "qqq"))).map(lambda sw: [sw[1], *sw[0], sw[1]]),
        )
        sources = data.draw(st.lists(source, min_size=1, max_size=12))
        beam = st.tuples(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=8).map(tuple),
                         st.sampled_from((-1.0, -2.0)))
        decoded = [
            [[Beam(tokens, raw, raw, True) for tokens, raw in group]
             for group in data.draw(st.lists(st.lists(beam, min_size=1, max_size=3), min_size=1, max_size=4))]
            for _ in sources
        ]
        assert_picks_match_oracle(decoded, sources, vocab, select_most_diverse(decoded, sources, vocab))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sources_with_several_references_equal_counter_bleu(self, data):
        # every source's references draw from ids 0-3, so one n-gram is often
        # held by several sources, at different counts; no reference holds 4
        reference = st.lists(st.integers(0, 3), min_size=1, max_size=8)
        references = data.draw(st.lists(st.lists(reference, min_size=2, max_size=3), min_size=2, max_size=5))
        candidate = st.tuples(st.integers(0, len(references) - 1), st.lists(st.integers(0, 4), min_size=1, max_size=10))
        owners, candidates = zip(*data.draw(st.lists(candidate, min_size=1, max_size=12)))
        max_n, smooth = data.draw(st.integers(1, 4)), data.draw(st.booleans())
        expected = [counter_bleu(c, references[o], max_n, smooth) for c, o in zip(candidates, owners)]
        assert metrics.bleu_by_source(candidates, owners, references, max_n, smooth) == expected

    def test_selection_over_sources_that_overflow_a_shared_code(self, monkeypatch):
        # 12 sources of 2,500 distinct tokens each: an n-gram of their 30,000
        # tokens codes below 30,001**4 < 2**62, so one pass counts them all,
        # though 12 * 30,001**4 codes, a range per source, would not fit
        vocab = tuple(f"w{i}" for i in range(30_000))
        sources = [list(vocab[2500 * s : 2500 * (s + 1)]) for s in range(12)]
        decoded = []
        for s in range(12):
            # beams of the source's own tokens, and a copy from the next source
            own, other = (tuple(range(2500 * k, 2500 * k + 40)) for k in (s, (s + 1) % 12))
            decoded.append([
                [Beam(own, -1.0, -1.0, True), Beam(own[::-1], -2.0, -2.0, True), Beam(other, -3.0, -3.0, True)],
                [Beam(own[:20], -1.0, -1.0, True), Beam(own[::2], -1.0, -1.0, True)],
            ])
        calls = []
        clipped_counts = metrics._clipped_counts

        def counting(*args):
            calls.append(len(args[2]))
            return clipped_counts(*args)

        monkeypatch.setattr(metrics, "_clipped_counts", counting)
        picks = select_most_diverse(decoded, sources, vocab)
        assert calls == [12]
        assert_picks_match_oracle(decoded, sources, vocab, picks)

    def test_one_source_too_wide_for_a_code_fails_clearly(self):
        vocab = tuple(f"w{i}" for i in range(50_000))  # 50,001**4 >= 2**62
        with pytest.raises(ValueError, match="too many distinct reference tokens"):
            select_most_diverse([[[Beam((0, 1), -1.0, -1.0, True)]]], [list(vocab)], vocab)

    def test_rejects_empty_candidate_and_order_zero(self):
        with pytest.raises(ValueError, match="empty candidate"):
            bleu([], [["a"]])
        with pytest.raises(ValueError, match="max_n"):
            bleu(["a"], [["a"]], max_n=0)


class TestMeanPairwiseSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert mean_pairwise_similarity([v, v, v]) == pytest.approx(1.0)

    def test_orthogonal_set(self):
        vecs = [np.eye(3)[i] for i in range(3)]
        assert mean_pairwise_similarity(vecs) == pytest.approx(0.0)

    def test_hand_computed_pair_average(self):
        # cosines: (a,a)=1, (a,b)=0, (a,b)=0 -> mean 1/3
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert mean_pairwise_similarity([a, a, b]) == pytest.approx(1 / 3)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            mean_pairwise_similarity([np.ones(3)])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            mean_pairwise_similarity([np.zeros(2), np.ones(2)])

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=6) for _ in range(5)]
        value = mean_pairwise_similarity(vecs)
        assert mean_pairwise_similarity(vecs[::-1]) == pytest.approx(value)
        assert -1.0 <= value <= 1.0


class TestDiversityReport:
    @pytest.fixture()
    def encoder(self):
        vocab = Vocabulary.from_texts(["play the music now", "start my tunes please"])
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        return params, vocab

    def test_all_copies_degenerate(self, encoder):
        params, vocab = encoder
        source = "play the music"
        report = diversity_report(source, [source, source, source], params, vocab)
        assert report.bleu_vs_source == pytest.approx(1.0)
        assert report.mean_pairwise_similarity == pytest.approx(1.0)
        # four identical sentences: distinct bigrams of one, tokens of four
        assert report.dist2 == pytest.approx(2 / 12)

    def test_fields_within_ranges(self, encoder):
        params, vocab = encoder
        report = diversity_report(
            "play the music", ["start my tunes please", "play the music now"],
            params, vocab,
        )
        assert 0.0 < report.dist2 <= 1.0
        assert 0.0 <= report.bleu_vs_source <= 1.0
        assert -1.0 <= report.mean_pairwise_similarity <= 1.0

    def test_requires_two_paraphrases(self, encoder):
        params, vocab = encoder
        with pytest.raises(ValueError):
            diversity_report("play the music", ["only one"], params, vocab)
