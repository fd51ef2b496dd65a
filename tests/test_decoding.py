import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmstub import EOS, RandomLM, TableLM, decode_one, enumerate_sequences
from paraproto import decoding, metrics
from paraproto.decoding import (
    CURVES,
    Beam,
    ConstraintSet,
    DecodeConfig,
    SynonymBigramLM,
    build_bigram_constraints,
    build_unigram_constraints,
    diverse_beam_search,
    generate_paraphrase_batch,
    generate_paraphrases,
    mask_probabilities,
    select_most_diverse,
    stub_backtranslate,
)
from paraproto.data import load_dataset
from paraproto.encoder import tokenize
from paraproto.experiment import RunConfig
from paraproto.synth import default_synonym_table, generate_synthetic_dataset


class TestBeamSearch:
    """Plain beam search: diverse beam search with one group."""

    def test_width_one_is_greedy(self):
        lm = RandomLM(("a", "b", "c"), seed=1, eos_weight=0.2)
        source = ["a", "b"]
        beams = decode_one(lm, source, 1, 1, 0.0, max_len=4)[0]
        assert len(beams) == 1
        # replay greedily
        tokens = []
        score = 0.0
        for _ in range(4):
            logprobs, eos_lp = lm.next_logprobs(source, tokens)
            best = int(np.argmax(logprobs))
            candidates = [(logprobs[best], lm.vocab[best])]
            if tokens:
                candidates.append((eos_lp, EOS))
            best_lp, best_tok = max(candidates)
            score += best_lp
            if best_tok == EOS:
                break
            tokens.append(best_tok)
        assert [lm.vocab[i] for i in beams[0].tokens] == tokens
        assert beams[0].score == pytest.approx(score)

    def test_matches_exhaustive_enumeration(self):
        lm = RandomLM(("a", "b", "c"), seed=7, eos_weight=0.6)
        source = ["b", "c"]
        oracle = enumerate_sequences(lm, source, max_len=3, constraints=ConstraintSet())
        beams = decode_one(lm, source, 100, 1, 0.0, max_len=3)[0]
        assert beams[0].tokens == oracle[0][1]
        assert beams[0].score == pytest.approx(oracle[0][0])
        # the whole frontier matches, not just the top
        got = [(b.tokens, b.finished) for b in beams]
        expected = [(tokens, fin) for _, tokens, fin in oracle[: len(got)]]
        assert got == expected

    def test_banned_first_token_changes_output(self):
        lm = RandomLM(("a", "b", "c"), seed=3, eos_weight=0.2)
        source = ["a"]
        free = decode_one(lm, source, 1, 1, 0.0, 3)[0]
        first = free[0].tokens[0]
        banned = decode_one(
            lm, source, 1, 1, 0.0, 3, ConstraintSet(banned_unigrams=frozenset({lm.vocab[first]}))
        )[0]
        assert banned[0].tokens[0] != first
        assert lm.vocab[first] not in [lm.vocab[i] for i in banned[0].tokens]

    def test_all_tokens_banned_errors(self):
        lm = RandomLM(("a", "b"), seed=0)
        constraints = ConstraintSet(banned_unigrams=frozenset({"a", "b"}))
        with pytest.raises(ValueError, match="exhaust"):
            decode_one(lm, ["a"], 2, 1, 0.0, 3, constraints)

    def test_invalid_arguments(self):
        lm = RandomLM(("a",), seed=0)
        with pytest.raises(ValueError):
            decode_one(lm, ["a"], 0, 1, 0.0, 3)
        with pytest.raises(ValueError):
            decode_one(lm, ["a"], 1, 1, 0.0, 0)

    def test_deterministic(self):
        lm = RandomLM(("a", "b", "c", "d"), seed=5)
        a = decode_one(lm, ["a", "d"], 4, 1, 0.0, 5)
        b = decode_one(lm, ["a", "d"], 4, 1, 0.0, 5)
        assert a == b


class TestDiverseBeamSearch:
    def test_zero_penalty_groups_collapse(self):
        lm = RandomLM(("a", "b", "c"), seed=13, eos_weight=0.4)
        groups = decode_one(
            lm, ["a", "b"], num_beams=6, num_groups=3, diversity_penalty=0.0, max_len=4
        )
        first = [b.tokens for b in groups[0]]
        for group in groups[1:]:
            assert [b.tokens for b in group] == first

    def test_hand_traced_two_group_divergence(self):
        # two near-tied first tokens: log(0.55) - log(0.45) ~ 0.2 < penalty 0.5
        lm = TableLM(
            ("a", "b"),
            table={(): {"a": 0.55, "b": 0.45}},
            default={"a": 0.1, "b": 0.1, EOS: 0.8},
        )
        groups = decode_one(
            lm, ["a"], num_beams=2, num_groups=2, diversity_penalty=0.5, max_len=2
        )
        first_tokens = [group[0].tokens[0] for group in groups]
        assert lm.vocab[first_tokens[0]] == "a"
        assert lm.vocab[first_tokens[1]] == "b"

    def test_low_penalty_keeps_groups_identical(self):
        lm = TableLM(
            ("a", "b"),
            table={(): {"a": 0.55, "b": 0.45}},
            default={"a": 0.1, "b": 0.1, EOS: 0.8},
        )
        groups = decode_one(
            lm, ["a"], num_beams=2, num_groups=2, diversity_penalty=0.05, max_len=2
        )
        firsts = [lm.vocab[group[0].tokens[0]] for group in groups]
        assert firsts == ["a", "a"]

    def test_divisibility_enforced(self):
        lm = RandomLM(("a", "b"), seed=0)
        with pytest.raises(ValueError, match="multiple"):
            decode_one(lm, ["a"], num_beams=5, num_groups=2,
                                diversity_penalty=0.5, max_len=3)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, penalty):
        lm = RandomLM(("a", "b"), seed=0)
        with pytest.raises(ValueError, match="diversity_penalty must be finite"):
            decode_one(lm, ["a"], num_beams=4, num_groups=2,
                                diversity_penalty=penalty, max_len=3)


def per_beam_diverse_beam_search(lm, source, num_beams, num_groups, diversity_penalty, max_len,
                                 constraints=ConstraintSet()):
    """Reference decoder: one `next_logprobs` call and one argsort per beam
    and group, the way diverse beam search was first written here."""
    n_vocab = len(lm.vocab)
    index = {tok: i for i, tok in enumerate(lm.vocab)}
    banned_mask = np.array([tok in constraints.banned_unigrams for tok in lm.vocab])
    bigram_next = {}
    for a, b in constraints.banned_bigrams:
        if a in index and b in index:
            bigram_next.setdefault(index[a], []).append(index[b])

    def advance(beams, width, penalty_counts):
        finished = [b for b in beams if b.finished]
        active = [b for b in beams if not b.finished]
        if not active:
            return beams, []
        rows, raw_rows = [], []
        for beam in active:
            logprobs, eos_lp = lm.next_logprobs(source, beam.texts(lm.vocab))
            scores = beam.score + logprobs
            scores[banned_mask] = -np.inf
            if beam.tokens and beam.tokens[-1] in bigram_next:
                scores[bigram_next[beam.tokens[-1]]] = -np.inf
            if penalty_counts is not None and diversity_penalty > 0.0:
                scores = scores - diversity_penalty * penalty_counts
            rows.append(np.append(scores, beam.score + eos_lp if beam.tokens else -np.inf))
            raw_rows.append(np.append(logprobs, eos_lp))
        flat = np.concatenate([np.array([b.score for b in finished]), np.ravel(rows)])
        new_beams, chosen = [], []
        for idx in np.argsort(-flat, kind="stable"):
            if len(new_beams) >= width:
                break
            if not np.isfinite(flat[idx]):
                continue
            if idx < len(finished):
                new_beams.append(finished[idx])
                continue
            beam_i, token = divmod(int(idx) - len(finished), n_vocab + 1)
            parent = active[beam_i]
            raw = parent.raw_score + float(raw_rows[beam_i][token])
            done = token == n_vocab
            tokens = parent.tokens if done else parent.tokens + (token,)
            new_beams.append(Beam(tokens, float(flat[idx]), raw, done))
            if not done:
                chosen.append(token)
        return new_beams, chosen

    groups = [[Beam((), 0.0, 0.0, False)] for _ in range(num_groups)]
    for _ in range(max_len):
        if all(b.finished for group in groups for b in group):
            break
        counts = np.zeros(n_vocab)
        for g in range(num_groups):
            groups[g], chosen = advance(groups[g], num_beams // num_groups, counts if g > 0 else None)
            for token in chosen:
                counts[token] += 1.0
    return groups


class TestBatchedStepMatchesPerBeam:
    """The batched decoder gives exactly the groups of the per-beam reference:
    with a test LM whose batch step stacks its per-prefix rows, and with
    `SynonymBigramLM.next_logprobs_batch`."""

    def test_random_lm(self):
        lm = RandomLM(tuple("abcdef"), seed=21, eos_weight=0.3)
        rng = np.random.default_rng(5)
        for trial in range(40):
            source = [lm.vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 6))]
            constraints = ConstraintSet(
                banned_unigrams=build_unigram_constraints(source, 0.4, "flat", rng).banned_unigrams,
                banned_bigrams=build_bigram_constraints(source).banned_bigrams if trial % 2 else frozenset(),
            )
            if set(lm.vocab) <= constraints.banned_unigrams:
                continue
            num_groups = 1 + trial % 4
            args = (lm, source, num_groups * (1 + trial % 3), num_groups, (0.0, 0.5, 2.0)[trial % 3], 5)
            groups = decode_one(*args, constraints=constraints)
            assert groups == per_beam_diverse_beam_search(*args, constraints)

    def test_synonym_bigram_lm(self, toy_lm, tmp_path):
        texts = load_dataset(generate_synthetic_dataset(tmp_path / "corpus.jsonl", n_classes=4,
                                                        sentences_per_class=6, seed=3)).texts()
        synth_lm = SynonymBigramLM(texts, default_synonym_table())
        # joined sentences repeat tokens, so the repeat decay runs several passes
        synth_sentences = texts[:4] + [f"{a} and {b}" for a, b in zip(texts[4:8], texts[12:16])]
        cases = [(toy_lm, s) for s in ("can you play the music", "book the flight now please",
                                       "check my balance")]
        cases += [(synth_lm, s) for s in synth_sentences]
        rng = np.random.default_rng(8)
        most_repeats = 0
        for lm, sentence in cases:
            source = tokenize(sentence)
            for constraints in (ConstraintSet(), build_bigram_constraints(source),
                                build_unigram_constraints(source, 0.7, "flat", rng)):
                args = (lm, source, 15, 5, 0.5, 2 * len(source) + 5)
                groups = decode_one(*args, constraints=constraints)
                assert groups == per_beam_diverse_beam_search(*args, constraints)
                most_repeats = max([most_repeats] + [max(np.bincount(b.tokens)) for g in groups
                                                     for b in g if b.tokens])
        assert most_repeats >= 3

    def test_ties_keep_row_major_order(self):
        # a uniform LM makes every candidate of a beam tie, so only the
        # order rule (finished first, then row-major) tells beams apart
        lm = TableLM(("a", "b", "c", "d"), {}, default={"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, EOS: 1.0})
        for num_groups, per_group, penalty in ((1, 3, 0.0), (2, 3, 0.5), (3, 2, 2.0), (1, 7, 0.0)):
            for source in (["a"], ["b", "d", "a"]):
                args = (lm, source, num_groups * per_group, num_groups, penalty, 4)
                for constraints in (ConstraintSet(), build_bigram_constraints(source)):
                    assert decode_one(*args, constraints) == per_beam_diverse_beam_search(*args, constraints)


class TestLMCallCounts:
    """A seeded decode makes one batched LM call per step and builds its
    source's table of base rows once, so per-beam LM calls and per-step
    table rebuilds cannot come back unnoticed."""

    def test_one_batch_call_per_step_and_one_table_build_per_source(self, monkeypatch):
        lm = SynonymBigramLM(
            ["can you play the music", "book the flight now please", "check my balance"],
            default_synonym_table(),
        )
        batch_lengths, builds = [], []
        batch, use_sources = SynonymBigramLM.next_logprobs_batch, SynonymBigramLM._use_sources

        def counting_batch(self, sources, owners, prefixes):
            batch_lengths.append({len(p) for p in prefixes})
            return batch(self, sources, owners, prefixes)

        def counting_use_sources(self, sources):
            # a table build: only a build sets a new view of the table rows
            rows = getattr(self, "_rows", None)
            out = use_sources(self, sources)
            if self._rows is not rows:
                builds.extend(self._sources)
            return out

        def no_single_calls(self, source, prefix):
            raise AssertionError("per-beam next_logprobs call")

        monkeypatch.setattr(SynonymBigramLM, "next_logprobs_batch", counting_batch)
        monkeypatch.setattr(SynonymBigramLM, "_use_sources", counting_use_sources)
        monkeypatch.setattr(SynonymBigramLM, "next_logprobs", no_single_calls)
        rng = np.random.default_rng(4)
        for sentence in ("can you play the music and book the flight now please",
                         "check my balance"):
            for strategy in ("dbs", "dbs_unigram", "dbs_bigram"):
                batch_lengths.clear()
                builds.clear()
                generate_paraphrases(lm, sentence, 5, strategy, DecodeConfig(), rng)
                # every unfinished beam has as many tokens as steps taken
                assert batch_lengths == [{step} for step in range(len(batch_lengths))]
                # one build when the source changes, none per step; a decode
                # of the same source again reuses the table
                assert builds == ([tuple(tokenize(sentence))] if strategy == "dbs" else [])


@pytest.fixture(scope="module")
def synth_lm_and_texts(tmp_path_factory):
    """The acceptance corpus's LM (V = 114) and texts."""
    path = tmp_path_factory.mktemp("synth") / "synth20.jsonl"
    texts = load_dataset(generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30,
                                                    synonym_rate=0.5, seed=0)).texts()
    return SynonymBigramLM(texts, default_synonym_table()), texts


class TestManySourcesSearch:
    """A search of S sources equals S searches of one source each, beam for
    beam."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_single_source_searches(self, synth_lm_and_texts, data):
        lm, texts = synth_lm_and_texts
        sentence = st.sampled_from(texts[:60])
        # single sentences, joined ones (repeated tokens), and out-of-vocabulary words
        source = st.one_of(
            sentence.map(tokenize),
            st.tuples(sentence, sentence).map(lambda ab: tokenize(" and ".join(ab))),
            st.tuples(sentence, st.sampled_from(("zzz", "qqq"))).map(
                lambda sw: [sw[1], *tokenize(sw[0]), sw[1]]),
        )
        sources = data.draw(st.lists(source, min_size=1, max_size=12))
        num_groups = data.draw(st.integers(1, 5))
        num_beams = num_groups * data.draw(st.integers(1, 3))
        penalty = data.draw(st.sampled_from((0.0, 0.5, 2.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        constraints = [
            data.draw(st.sampled_from((
                ConstraintSet(),
                build_bigram_constraints(s),
                build_unigram_constraints(s, 0.7, "flat", rng),
            )))
            for s in sources
        ]
        max_lens = [data.draw(st.integers(1, 2 * len(s) + 5)) for s in sources]
        singles = [
            decode_one(lm, s, num_beams, num_groups, penalty, m, c)
            for s, m, c in zip(sources, max_lens, constraints)
        ]
        found = diverse_beam_search(lm, sources, num_beams, num_groups, penalty, max_lens, constraints)
        assert found == singles
        # a Beam equals a plain tuple of its fields, so check the type apart
        assert all(type(b) is Beam for groups in found for group in groups for b in group)

    def test_cap_allows_nine_sources_at_acceptance_vocabulary(self, synth_lm_and_texts):
        lm, _ = synth_lm_and_texts
        assert len(lm.vocab) == 114
        assert decoding.DECODE_BLOCK_BYTES // (8 * (len(lm.vocab) + 1) ** 2) == 9

    def test_one_lm_call_per_step_over_every_source(self, synth_lm_and_texts, monkeypatch):
        lm, texts = synth_lm_and_texts
        calls = []
        batch = SynonymBigramLM.next_logprobs_batch

        def counting_batch(self, sources, owners, prefixes):
            calls.append((len(sources), set(owners)))
            return batch(self, sources, owners, prefixes)

        monkeypatch.setattr(SynonymBigramLM, "next_logprobs_batch", counting_batch)
        sources = [tokenize(t) for t in texts[:3]]
        max_lens = [2 * len(s) + 5 for s in sources]
        diverse_beam_search(lm, sources, 15, 5, 0.5, max_lens)
        assert calls[0] == (3, {0, 1, 2})
        assert len(calls) <= max(max_lens)

    def test_block_peak_memory_stays_near_the_capped_tables(self, synth_lm_and_texts):
        # a training block decodes about 170 misses at once; uncapped, their
        # tables alone would take 170 * 8 * 115**2 bytes, about 18 MB. Capped,
        # the peak is one block's tables (0.95 MB), about as much again for
        # the step's arrays and banned masks, and the inputs and outputs.
        lm, texts = synth_lm_and_texts
        sentences = texts[:170]
        capped = (decoding.DECODE_BLOCK_BYTES // (8 * 115**2)) * 8 * 115**2
        generate_paraphrase_batch(lm, sentences[:2], 5, "dbs_unigram", DecodeConfig(),
                                  np.random.default_rng(0))  # warm caches outside the trace
        tracemalloc.start()
        try:
            generate_paraphrase_batch(lm, sentences, 5, "dbs_unigram", DecodeConfig(),
                                      np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * capped


class TestSelectionCounts:
    """A batch counts BLEU n-grams once per search, over all of its sources,
    so per-sentence counting cannot come back unnoticed."""

    def test_one_bleu_count_per_search(self, synth_lm_and_texts, monkeypatch):
        lm, texts = synth_lm_and_texts
        searches, counts = [], []
        search, clipped_counts = decoding.diverse_beam_search, metrics._clipped_counts

        def counting_search(lm, sources, *args, **kwargs):
            searches.append(len(sources))
            return search(lm, sources, *args, **kwargs)

        def counting_counts(candidates, owners, references, max_n):
            counts.append(len(references))
            return clipped_counts(candidates, owners, references, max_n)

        monkeypatch.setattr(decoding, "diverse_beam_search", counting_search)
        monkeypatch.setattr(metrics, "_clipped_counts", counting_counts)
        generate_paraphrase_batch(lm, texts[:20], 5, "dbs_unigram", DecodeConfig(), np.random.default_rng(0))
        # 20 sentences at V = 114, in blocks of 9
        assert searches == [9, 9, 2]
        assert counts == searches


class TestParaphraseBatch:
    """The batch entry point equals one `generate_paraphrases` call per
    sentence, outputs and generator state alike."""

    @pytest.mark.parametrize("strategy", ["dbs", "dbs_unigram", "dbs_bigram", "stub_bt"])
    @pytest.mark.parametrize("block", [1, 2, None])
    def test_equals_per_sentence_calls(self, synth_lm_and_texts, strategy, block, monkeypatch):
        lm, texts = synth_lm_and_texts
        sentences = texts[:12] + [f"{a} and {b}" for a, b in zip(texts[12:18], texts[30:36])]
        sentences += [sentences[0], "zzz " + texts[40]]  # a repeat and an out-of-vocabulary word
        config = DecodeConfig(num_beams=9, num_groups=3)
        one_by_one, batch = np.random.default_rng(6), np.random.default_rng(6)
        singles = [generate_paraphrases(lm, s, 3, strategy, config, one_by_one) for s in sentences]
        if block is not None:  # blocks of `block` sources; else the default cap of 9
            monkeypatch.setattr(decoding, "DECODE_BLOCK_BYTES", block * 8 * (len(lm.vocab) + 1) ** 2)
        assert generate_paraphrase_batch(lm, sentences, 3, strategy, config, batch) == singles
        assert batch.bit_generator.state == one_by_one.bit_generator.state

    def test_no_sentences(self, toy_lm):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert generate_paraphrase_batch(toy_lm, [], 5, "dbs_unigram", DecodeConfig(), rng) == []
        assert rng.bit_generator.state == state

    def test_error_messages(self, toy_lm):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            generate_paraphrase_batch(toy_lm, ["play"], 5, "nope", DecodeConfig(), rng)
        with pytest.raises(ValueError, match="cannot paraphrase an empty sentence"):
            generate_paraphrase_batch(toy_lm, ["play", "  "], 5, "dbs", DecodeConfig(), rng)
        with pytest.raises(ValueError, match=r"n_paraphrases == num_groups, got 3 != 5"):
            generate_paraphrase_batch(toy_lm, ["play"], 3, "dbs", DecodeConfig(), rng)
        with pytest.raises(ValueError, match="stub_bt requires an LM that exposes a synonym table"):
            generate_paraphrase_batch(RandomLM(("a",)), ["a"], 5, "stub_bt", DecodeConfig(), rng)
        sources = [["play"], ["music"], ["book"]]
        exhausting = ConstraintSet(banned_unigrams=frozenset(toy_lm.vocab))
        with pytest.raises(ValueError, match="constraints exhaust vocabulary"):
            diverse_beam_search(toy_lm, sources, 5, 5, 0.5, [3] * 3,
                                [ConstraintSet(), exhausting, ConstraintSet()])
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            diverse_beam_search(toy_lm, sources, 5, 5, 0.5, [3, 0, 3])
        with pytest.raises(ValueError, match="one max_len and one constraint set per source"):
            diverse_beam_search(toy_lm, sources, 5, 5, 0.5, [3, 3])


class TestMaskProbabilities:
    def test_flat(self):
        np.testing.assert_allclose(mask_probabilities(10, 0.7, "flat"), 0.7)

    def test_down_ramp_endpoints(self):
        probs = mask_probabilities(10, 0.7, "down")
        assert probs[0] == pytest.approx(1.0)
        assert probs[-1] == pytest.approx(0.4)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_up_is_mirror_of_down(self):
        down = mask_probabilities(7, 0.7, "down")
        up = mask_probabilities(7, 0.7, "up")
        np.testing.assert_allclose(up, down[::-1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["flat", "down", "up"]),
    )
    def test_mean_is_pmask_and_in_range(self, n, p, curve):
        probs = mask_probabilities(n, p, curve)
        assert probs.mean() == pytest.approx(p, abs=1e-9)
        assert np.all(probs >= -1e-12) and np.all(probs <= 1 + 1e-12)


class TestUnigramConstraints:
    def test_pmask_zero_bans_nothing(self):
        cs = build_unigram_constraints(["a", "b"], 0.0, "flat", np.random.default_rng(0))
        assert not cs.banned_unigrams

    def test_pmask_one_bans_everything(self):
        for curve in ("flat", "down", "up"):
            cs = build_unigram_constraints(
                ["a", "b", "c"], 1.0, curve, np.random.default_rng(0)
            )
            assert cs.banned_unigrams == {"a", "b", "c"}

    def test_monte_carlo_frequency(self):
        # p_mask found by the upstream linear search: 0.7
        tokens = [f"t{i}" for i in range(10)]
        rng = np.random.default_rng(123)
        total = 0
        trials = 10_000
        for _ in range(trials):
            cs = build_unigram_constraints(tokens, 0.7, "flat", rng)
            total += len(cs.banned_unigrams)
        assert total / (trials * 10) == pytest.approx(0.7, abs=0.02)

    def test_positional_curves_bias_positions(self):
        tokens = [f"t{i}" for i in range(8)]
        rng = np.random.default_rng(7)
        first, last = 0, 0
        for _ in range(4000):
            cs = build_unigram_constraints(tokens, 0.5, "down", rng)
            first += "t0" in cs.banned_unigrams
            last += "t7" in cs.banned_unigrams
        assert first / 4000 == pytest.approx(1.0, abs=0.03)  # ramp top = min(1, 2*0.5)
        assert last / 4000 == pytest.approx(0.0, abs=0.03)


class TestBigramConstraints:
    def test_adjacent_pairs(self):
        cs = build_bigram_constraints(["a", "b", "c"])
        assert cs.banned_bigrams == {("a", "b"), ("b", "c")}
        assert not cs.banned_unigrams

    def test_single_token_empty(self):
        assert not build_bigram_constraints(["a"]).banned_bigrams

    def test_repeated_bigram_once(self):
        cs = build_bigram_constraints(["a", "b", "a", "b"])
        assert cs.banned_bigrams == {("a", "b"), ("b", "a")}


class TestSelectMostDiverse:
    def test_verbatim_copy_loses(self):
        from paraproto.decoding import Beam

        vocab = ("x", "y", "z")
        copy = Beam(tokens=(0, 1), score=-1.0, raw_score=-1.0, finished=True)
        other = Beam(tokens=(2,), score=-2.0, raw_score=-2.0, finished=True)
        best = select_most_diverse([[[copy, other]]], [["x", "y"]], vocab)[0][0]
        assert best is other

    def test_all_identical_returns_that_beam(self):
        from paraproto.decoding import Beam

        vocab = ("x", "y")
        beams = [Beam(tokens=(0,), score=-1.0, raw_score=-1.0, finished=True)] * 3
        assert select_most_diverse([[beams]], [["x"]], vocab)[0][0].tokens == (0,)

    def test_lowest_bleu_wins_hand_computed(self):
        from paraproto.decoding import Beam
        from paraproto.metrics import bleu

        vocab = ("the", "cat", "sat", "dog", "ran")
        source = ["the", "cat", "sat"]
        seqs = [(0, 1, 2), (0, 3, 4), (0, 1, 4)]
        beams = [Beam(tokens=s, score=-1.0, raw_score=-1.0, finished=True) for s in seqs]
        bleus = [bleu([vocab[i] for i in s], [source], smooth=True) for s in seqs]
        best = select_most_diverse([[beams]], [source], vocab)[0][0]
        assert best.tokens == seqs[int(np.argmin(bleus))]

    def test_bleu_tie_broken_by_raw_score(self):
        from paraproto.decoding import Beam

        vocab = ("p", "q", "r")
        source = ["zzz"]
        low = Beam(tokens=(0,), score=-5.0, raw_score=-5.0, finished=True)
        high = Beam(tokens=(1,), score=-1.0, raw_score=-1.0, finished=True)
        assert select_most_diverse([[[low, high]]], [source], vocab)[0][0] is high


@pytest.fixture(scope="module")
def toy_lm():
    corpus = [
        "can you play the music",
        "please play my songs",
        "i want to book a flight",
        "book the flight now",
        "check my balance please",
        "can you check the balance",
    ]
    return SynonymBigramLM(corpus, default_synonym_table())


@pytest.fixture(scope="module")
def oov_synonym_lm(toy_lm):
    """`toy_lm` plus "qqq", an out-of-vocabulary token with in-vocabulary
    synonyms. The constructor never makes one, since it adds every synonym
    word to the vocabulary, so the entry is added afterwards."""
    lm = copy.deepcopy(toy_lm)
    lm.synonyms["qqq"] = ("music", "play")
    return lm


class TestSynonymBigramLM:
    def test_scores_normalized(self, toy_lm):
        logprobs, eos = toy_lm.next_logprobs(["play", "the", "music"], [])
        total = np.exp(logprobs).sum() + np.exp(eos)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(logprobs)) and np.isfinite(eos)

    def test_every_corpus_token_scorable(self, toy_lm):
        for token in ("can", "music", "flight", "balance"):
            assert token in toy_lm.vocab

    def test_deterministic(self, toy_lm):
        a = toy_lm.next_logprobs(["play", "the", "music"], ["please"])
        b = toy_lm.next_logprobs(["play", "the", "music"], ["please"])
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_copy_pointer_prefers_next_source_token(self, toy_lm):
        logprobs, _ = toy_lm.next_logprobs(["play", "the", "music"], ["play"])
        assert toy_lm.vocab[int(np.argmax(logprobs))] == "the"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_rows_equal_single_prefix_calls(self, toy_lm, data):
        vocab = toy_lm.vocab
        words = st.sampled_from(vocab + ("zzz",))  # "zzz" is out of vocabulary
        source = data.draw(st.lists(words, min_size=1, max_size=10))
        src_len = len(source)
        lo, hi = max(1, round(0.85 * src_len)), src_len + max(2, round(0.5 * src_len))
        pool = data.draw(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=4))
        prefixes = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=hi + 2), max_size=5))
        unaligned = [
            i for i, tok in enumerate(vocab)
            if all(tok != s and tok not in toy_lm.synonyms.get(s, ()) for s in source)
        ]
        # always: an empty prefix, one token three times, each side of both
        # EOS-gate thresholds, and a last token with no source alignment
        prefixes += [[], [pool[0]] * 3, [pool[0]] * (lo - 1), [pool[0]] * lo,
                     [pool[-1]] * hi, [pool[-1]] * (hi + 1), pool + [unaligned[0]]]
        batch = toy_lm.next_logprobs_batch([source], [0] * len(prefixes), prefixes)
        assert batch.shape == (len(prefixes), len(vocab) + 1)
        logprobs, eos = batch[:, :-1], batch[:, -1]
        for row, prefix in enumerate(prefixes):
            ref, ref_eos = per_token_next_logprobs(toy_lm, source, [vocab[i] for i in prefix])
            assert np.array_equal(logprobs[row], ref) and eos[row] == ref_eos

    def test_out_of_vocabulary_prefix_token_rejected(self, toy_lm):
        # a decoder emits vocabulary ids only, so a token with no id has no score
        for prefix in (["zzz"], ["zzz", "play"], ["play", "zzz"]):
            with pytest.raises(ValueError, match="^prefix token 'zzz' is not in the vocabulary$"):
                toy_lm.next_logprobs(["play", "zzz", "music"], prefix)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_table_rows_equal_reference_base_rows(self, oov_synonym_lm, data):
        lm = oov_synonym_lm
        synonym_words = sorted(tok for tok in lm.synonyms if tok in lm.vocab)
        words = st.one_of(st.sampled_from(lm.vocab), st.sampled_from(synonym_words),
                          st.sampled_from(("zzz", "qqq")))
        # a small pool makes repeated tokens common
        pool = data.draw(st.lists(words, min_size=1, max_size=4))
        assert_table_matches_reference(lm, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)))

    def test_table_rows_on_chosen_sources(self, oov_synonym_lm):
        for source in (["play"], ["zzz"], ["qqq"], ["play", "songs", "play", "music", "play"],
                       ["qqq", "music", "zzz", "tunes", "qqq"]):
            assert_table_matches_reference(oov_synonym_lm, source)

    def test_empty_source_fails_clearly(self, toy_lm):
        with pytest.raises(ValueError, match="empty source"):
            toy_lm.next_logprobs([], [])
        with pytest.raises(ValueError, match="empty source"):
            toy_lm.next_logprobs_batch([[]], [0], [()])

    def test_out_of_range_token_ids_rejected(self, toy_lm):
        # id V and id -1 would both read the BOS row of the table; as unsigned
        # ids, a Python -1 overflows but a numpy -1 wraps
        source, n = ["play", "music"], len(toy_lm.vocab)
        for bad in ((n,), (-1,), (0, n), (np.intp(-1),), (0, np.int64(-1))):
            with pytest.raises(ValueError, match=rf"token ids must lie in \[0, {n}\)"):
                toy_lm.next_logprobs_batch([source], [0, 0], [(0,), bad])
        valid = (toy_lm.vocab.index("play"), n - 1)
        logprobs, eos = toy_lm.next_logprobs(source, [toy_lm.vocab[i] for i in valid])
        row = toy_lm.next_logprobs_batch([source], [0], [valid])[0]
        assert np.array_equal(row[:-1], logprobs) and row[-1] == eos

    @pytest.mark.parametrize("last", [-200, 10**30, 0.5])
    def test_unindexable_last_id_rejected(self, toy_lm, last):
        # the table gather reads the last ids before they are checked: an id
        # below -(V+1), one past any index and a non-integer fail there
        n = len(toy_lm.vocab)
        with pytest.raises(ValueError, match=rf"^prefix token ids must lie in \[0, {n}\)$"):
            toy_lm.next_logprobs_batch([["play", "music"]], [0, 0], [(0,), (last,)])

    @pytest.mark.parametrize("owner", [-1, 2])
    def test_owner_outside_sources_rejected(self, toy_lm, owner):
        # a negative owner would read another source's table rows
        with pytest.raises(ValueError, match=r"^owners must lie in \[0, 2\)$"):
            toy_lm.next_logprobs_batch([["play"], ["music"]], [0, owner], [(0,), (1,)])

    @pytest.mark.parametrize("prefix", [(0.5, 1), (1.0, 1)])
    def test_non_integer_id_before_the_last_rejected(self, toy_lm, prefix):
        # the unsigned id array takes only integers, so a float fails at any
        # position, not only where the table gather reads it
        n = len(toy_lm.vocab)
        with pytest.raises(ValueError, match=rf"^prefix token ids must lie in \[0, {n}\)$"):
            toy_lm.next_logprobs_batch([["play", "music"]], [0, 0], [(0,), prefix])


def reference_base_row(lm, source, last):
    """Reference SynonymBigramLM base row, built alone: the mixture
    probabilities (V+1 columns, EOS last) after a prefix whose last token is
    `last` (None before the first), before the repeat decay and the EOS gate."""
    n = len(lm.vocab)
    index = {tok: i for i, tok in enumerate(lm.vocab)}
    probs = decoding.BIGRAM_WEIGHT * lm._bigram[index.get(last, n)].copy()
    probs[:n] += decoding.UNIFORM_WEIGHT / n
    if last is not None:
        aligned = [i for i, tok in enumerate(source)
                   if tok == last or last in lm.synonyms.get(tok, ())]
        nexts = [source[i + 1] for i in aligned if i + 1 < len(source)]
        at_end = len(source) - 1 in aligned
    else:
        nexts, at_end = [source[0]], False
    if nexts or at_end:
        share = decoding.COPY_WEIGHT / (len(nexts) + at_end)
        for tok in nexts:
            if tok in index:
                probs[index[tok]] += share
        if at_end:
            probs[n] += share
        syn_from = nexts
    else:
        src_ids = sorted({index[t] for t in source if t in index})
        if src_ids:
            probs[src_ids] += decoding.COPY_WEIGHT / len(src_ids)
        syn_from = source
    syn_ids = sorted({index[alt] for tok in syn_from for alt in lm.synonyms.get(tok, ()) if alt in index})
    if syn_ids:
        probs[syn_ids] += decoding.SYNONYM_WEIGHT / len(syn_ids)
    return probs


def assert_table_matches_reference(lm, source):
    """Every row of `source`'s table equals its reference base row."""
    lm._use_sources([source])
    for i in range(len(lm.vocab) + 1):
        last = lm.vocab[i] if i < len(lm.vocab) else None
        assert np.array_equal(lm._rows[i], reference_base_row(lm, source, last)), (source, last)


def per_token_next_logprobs(lm, source, prefix):
    """Reference SynonymBigramLM step from `reference_base_row`, with the
    repeat decay applied one prefix token at a time and one normalization
    over a single 1-D row."""
    n = len(lm.vocab)
    index = {tok: i for i, tok in enumerate(lm.vocab)}
    probs = reference_base_row(lm, source, prefix[-1] if prefix else None)
    for tok in prefix:
        probs[index[tok]] *= decoding.REPEAT_DECAY
    src_len = max(len(source), 1)
    if len(prefix) < max(1, round(0.85 * src_len)):
        probs[n] *= 1e-4
    elif len(prefix) > src_len + max(2, round(0.5 * src_len)):
        probs[n] *= 25.0
    probs /= probs.sum()
    logs = np.log(probs)
    return logs[:n], float(logs[n])


class TestStubBacktranslate:
    def test_substitutes_synonyms(self):
        synonyms = {**default_synonym_table(), "phone": ("telephone", "handset")}
        source = ["i", "am", "not", "sure", "where", "my", "phone", "is"]
        variants = stub_backtranslate(source, synonyms, 5)
        assert len(variants) == 5
        assert any(v != source for v in variants)
        for variant in variants:
            assert len(variant) == len(source)
            # near-copy: at most a couple of positions changed
            changed = sum(1 for a, b in zip(source, variant) if a != b)
            assert changed <= 2

    def test_deterministic(self):
        synonyms = default_synonym_table()
        src = ["play", "the", "music"]
        assert stub_backtranslate(src, synonyms, 5) == stub_backtranslate(src, synonyms, 5)


class TestGenerateParaphrases:
    def test_stub_bt_near_copies(self, toy_lm):
        out = generate_paraphrases(
            toy_lm, "can you play the music", 5, "stub_bt",
            DecodeConfig(), np.random.default_rng(0),
        )
        assert len(out) == 5
        assert any("play" not in o.split() or "music" not in o.split() for o in out)

    def test_unigram_full_mask_excludes_source_tokens(self, toy_lm):
        config = DecodeConfig(p_mask=1.0)
        source_tokens = set("can you play the music".split())
        out = generate_paraphrases(
            toy_lm, "can you play the music", 5, "dbs_unigram", config,
            np.random.default_rng(1),
        )
        for text in out:
            assert not set(text.split()) & source_tokens

    def test_bigram_outputs_avoid_source_bigrams(self, toy_lm):
        source = "can you play the music"
        pairs = set(zip(source.split(), source.split()[1:]))
        out = generate_paraphrases(
            toy_lm, source, 5, "dbs_bigram", DecodeConfig(), np.random.default_rng(2)
        )
        for text in out:
            toks = text.split()
            assert not set(zip(toks, toks[1:])) & pairs

    def test_group_count_must_match(self, toy_lm):
        with pytest.raises(ValueError, match="num_groups"):
            generate_paraphrases(
                toy_lm, "play the music", 3, "dbs", DecodeConfig(), np.random.default_rng(0)
            )

    def test_deterministic_given_seed(self, toy_lm):
        cfg = DecodeConfig()
        a = generate_paraphrases(toy_lm, "check my balance please", 5, "dbs_unigram",
                                 cfg, np.random.default_rng(5))
        b = generate_paraphrases(toy_lm, "check my balance please", 5, "dbs_unigram",
                                 cfg, np.random.default_rng(5))
        assert a == b

    def test_unknown_strategy_rejected(self, toy_lm):
        with pytest.raises(ValueError):
            generate_paraphrases(toy_lm, "play", 5, "nope", DecodeConfig(),
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("strategy", ["stub_bt", "dbs_unigram"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_fewer_than_one_paraphrase_rejected(self, toy_lm, strategy, n):
        # stub_bt has no group count to check n against, so it once returned
        # no paraphrases at all; the check comes before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^n_paraphrases must be >= 1, got {n}$"):
            generate_paraphrase_batch(toy_lm, ["book the flight"], n, strategy, DecodeConfig(), rng)
        assert rng.bit_generator.state == state


class TestConstraintSoundnessFuzz:
    def test_no_banned_output_across_fuzzed_decodes(self):
        lm = RandomLM(tuple("abcdef"), seed=42, eos_weight=0.3)
        rng = np.random.default_rng(99)
        for trial in range(300):
            source = [lm.vocab[i] for i in rng.integers(0, 6, size=rng.integers(2, 6))]
            p_mask = float(rng.random())
            curve = ("flat", "down", "up")[trial % 3]
            uni = build_unigram_constraints(source, p_mask, curve, rng)
            bi = build_bigram_constraints(source)
            constraints = ConstraintSet(
                banned_unigrams=uni.banned_unigrams, banned_bigrams=bi.banned_bigrams
            )
            if set(lm.vocab) <= constraints.banned_unigrams:
                continue
            groups = decode_one(
                lm, source, num_beams=4, num_groups=2, diversity_penalty=0.5,
                max_len=5, constraints=constraints,
            )
            for group in groups:
                for beam in group:
                    toks = beam.texts(lm.vocab)
                    assert not set(toks) & constraints.banned_unigrams
                    assert not set(zip(toks, toks[1:])) & constraints.banned_bigrams


@st.composite
def decode_configs(draw):
    num_groups = draw(st.integers(1, 8))
    return DecodeConfig(
        num_beams=num_groups * draw(st.integers(1, 5)),
        num_groups=num_groups,
        diversity_penalty=draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        p_mask=draw(st.floats(0.0, 1.0)),
        curve=draw(st.sampled_from(CURVES)),
        max_len=draw(st.integers(0, 500)),
    )


class TestDecodeConfig:
    # a decode config is written and read as the `decode.*` keys of a run config

    @given(decode_configs())
    def test_text_round_trip_property(self, cfg):
        run = RunConfig(dataset_path="d", decode=cfg)
        assert RunConfig.from_text(run.to_text()).decode == cfg

    def test_round_trip_text(self):
        cfg = DecodeConfig(num_beams=9, num_groups=3, diversity_penalty=0.25,
                           p_mask=0.4, curve="down", max_len=12)
        assert RunConfig.from_text(RunConfig(dataset_path="d", decode=cfg).to_text()).decode == cfg

    def test_default_max_len_follows_source(self):
        cfg = DecodeConfig()
        assert cfg.resolved_max_len(6) == 17
        assert DecodeConfig(max_len=9).resolved_max_len(6) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(p_mask=1.5)
        with pytest.raises(ValueError):
            DecodeConfig(curve="sideways")
        with pytest.raises(ValueError):
            DecodeConfig(diversity_penalty=-0.1)
        for penalty in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="diversity_penalty must be finite"):
                DecodeConfig(diversity_penalty=penalty)
        with pytest.raises(ValueError):
            RunConfig.from_text("decode.nonsense_key=1\n")
        for shape in (dict(num_beams=10, num_groups=3), dict(num_groups=0), dict(num_beams=0),
                      dict(num_beams=-5, num_groups=5)):
            with pytest.raises(ValueError, match="multiple of num_groups"):
                DecodeConfig(**shape)
        with pytest.raises(ValueError, match="max_len"):
            DecodeConfig(max_len=-4)
