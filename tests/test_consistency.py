import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto.consistency import (
    AnnealSchedule,
    anneal_weight,
    combined_training_step,
    unsupervised_loss,
)
from paraproto.encoder import AdamState, EncoderParams, Vocabulary, encode, optimizer_step, tokenize
from paraproto.numerics import (
    COSINE,
    SQUARED_EUCLIDEAN,
    finite_difference_gradient,
    gradient_check,
    softmax_over_neg_distances,
)
from paraproto.protonet import softmax_cross_entropy_episode, supervised_episode_loss
from rowstub import episode_records, text_batch, text_episode


VOCAB = Vocabulary.from_texts(["a b x y z p q"])


class TestUnlabeledBatch:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            text_batch(["a", "b"], [["x"], ["y", "z"]], VOCAB)

    def test_counts(self):
        batch = text_batch(["a", "b"], [["x", "y"], ["p", "q"]], VOCAB)
        assert batch.n_sentences == 2
        assert batch.n_paraphrases == 2


def _oracle_unsupervised_loss(sentences, paraphrases, params, vocab):
    """The consistency loss written per sentence: each sentence against the
    mean embedding of each sentence's paraphrases."""
    protos = np.array(
        [np.mean([encode(params, tokenize(p), vocab) for p in row], axis=0)
         for row in paraphrases]
    )
    losses = []
    for u, sentence in enumerate(sentences):
        emb = encode(params, tokenize(sentence), vocab)
        probs = softmax_over_neg_distances(((protos - emb) ** 2).sum(axis=1))
        losses.append(-math.log(probs[u]))
    return float(np.mean(losses))


class TestUnlabeledPrototypes:
    """unsupervised_loss takes each sentence's prototype as the mean of its
    paraphrase embeddings."""

    def _params(self, vocab, seed):
        return EncoderParams.init(len(vocab), 5, 4, np.random.default_rng(seed))

    def test_single_paraphrase_identity(self):
        sentences, paraphrases = ["a b", "c", "d a"], [["b"], ["c d"], ["a"]]
        batch, vocab = _batch_and_vocab(sentences, paraphrases)
        params = self._params(vocab, 0)
        loss, _ = unsupervised_loss(batch, params)
        oracle = _oracle_unsupervised_loss(sentences, paraphrases, params, vocab)
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_mean(self):
        batch, vocab = _batch_and_vocab()
        params = self._params(vocab, 1)
        loss, _ = unsupervised_loss(batch, params)
        oracle = _oracle_unsupervised_loss(SENTENCES, PARAPHRASES, params, vocab)
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_paraphrase_order_invariant(self):
        batch, vocab = _batch_and_vocab()
        params = self._params(vocab, 2)
        reversed_batch = text_batch(SENTENCES, [row[::-1] for row in PARAPHRASES], vocab)
        a, grads_a = unsupervised_loss(batch, params)
        b, grads_b = unsupervised_loss(reversed_batch, params)
        assert a == pytest.approx(b, rel=1e-12)
        np.testing.assert_allclose(grads_a.flat(), grads_b.flat(), atol=1e-14)

    def test_ragged_shape_rejected(self):
        with pytest.raises(ValueError, match="M >= 1"):
            text_batch(["a", "b"], [[], []], VOCAB)


def _consistency_probs(query, paraphrase_embs):
    """The distribution the consistency loss scores for one sentence: softmax
    over negative squared distances to the mean embedding of each sentence's
    paraphrases, read back from the per-target cross-entropy."""
    protos = np.asarray(paraphrase_embs, dtype=np.float64).mean(axis=1)
    queries = np.asarray(query, dtype=np.float64)[None, :]
    return np.array([
        math.exp(-softmax_cross_entropy_episode(
            queries, protos, np.array([c]), SQUARED_EUCLIDEAN)[0])
        for c in range(len(protos))
    ])


class TestConsistencyDistribution:
    def test_self_assignment(self):
        probs = _consistency_probs(
            [0.1, 0.0], [[[0.0, 0.0]], [[10.0, 10.0]], [[-10.0, 10.0]]]
        )
        assert np.argmax(probs) == 0
        assert probs[0] > 0.99

    def test_equidistant_uniform(self):
        vectors = np.array([[[1.0, 0.0]], [[-1.0, 0.0]], [[0.0, 1.0]], [[0.0, -1.0]],
                            [[0.0, 0.0]]])
        # place the query at the common center of the first four prototypes
        probs = _consistency_probs(np.zeros(2), vectors[:4])
        np.testing.assert_allclose(probs, [0.25] * 4)

    def test_hand_computed_two_prototypes(self):
        probs = _consistency_probs([0.0], [[[0.0]], [[math.sqrt(math.log(2.0))]]])
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], rtol=1e-12)


SENTENCES = ["red apple", "green pear", "blue plum"]
PARAPHRASES = [
    ["crimson apple", "red fruit"],
    ["verdant pear", "green fruit"],
    ["azure plum", "blue fruit"],
]


def _batch_and_vocab(sentences=SENTENCES, paraphrases=PARAPHRASES):
    vocab = Vocabulary.from_texts(sentences + [p for row in paraphrases for p in row])
    return text_batch(sentences, paraphrases, vocab), vocab


class TestUnsupervisedLoss:
    def test_collapse_gives_log_u(self):
        batch, vocab = _batch_and_vocab()
        params = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(0))
        params.embedding[:] = 0.0
        params.projection[:] = 0.0
        loss, _ = unsupervised_loss(batch, params)
        assert loss == pytest.approx(math.log(3.0), rel=1e-9)

    def test_perfect_consistency_near_zero(self):
        vocab = Vocabulary.from_texts(["aa bb cc"])
        batch = text_batch(["aa", "bb", "cc"], [["aa", "aa"], ["bb", "bb"], ["cc", "cc"]], vocab)
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(1))
        # sign-pattern embeddings + scaled identity projection saturate tanh,
        # putting the three sentences at mutually distant corners of [-1, 1]^8
        params.projection[:] = 3.0 * np.eye(8)
        params.bias[:] = 0.0
        signs = {"aa": np.ones(8), "bb": -np.ones(8), "cc": np.tile([1.0, -1.0], 4)}
        for tok, pattern in signs.items():
            params.embedding[vocab.index(tok)] = 3.0 * pattern
        loss, _ = unsupervised_loss(batch, params)
        assert loss < 0.01

    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    def test_gradients_match_finite_differences(self, distance):
        batch, vocab = _batch_and_vocab()
        params = EncoderParams.init(len(vocab), 5, 4, np.random.default_rng(2))

        def loss_fn(flat):
            return unsupervised_loss(batch, params.with_flat(flat), distance)[0]

        _, grads = unsupervised_loss(batch, params, distance)
        numeric = finite_difference_gradient(loss_fn, params.flat())
        report = gradient_check(grads.flat(), numeric)
        assert report.max_relative_error < 1e-4


class TestAnnealWeight:
    def test_endpoints_exact(self):
        schedule = AnnealSchedule(alpha=1.0, total_steps=500)
        assert anneal_weight(0, schedule) == 0.0
        assert anneal_weight(500, schedule) == 1.0

    def test_alpha_four_midpoint(self):
        schedule = AnnealSchedule(alpha=4.0, total_steps=2)
        assert anneal_weight(1, schedule) == pytest.approx(0.0625)

    def test_out_of_range_rejected(self):
        schedule = AnnealSchedule(alpha=1.0, total_steps=10)
        with pytest.raises(ValueError):
            anneal_weight(11, schedule)
        with pytest.raises(ValueError):
            anneal_weight(-1, schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        st.integers(min_value=1, max_value=1000),
    )
    def test_monotone_nondecreasing(self, alpha, total):
        schedule = AnnealSchedule(alpha=alpha, total_steps=total)
        weights = [anneal_weight(s, schedule) for s in range(total + 1)]
        assert all(b >= a for a, b in zip(weights, weights[1:]))
        assert all(0.0 <= w <= 1.0 for w in weights)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            AnnealSchedule(alpha=0.0, total_steps=10)
        with pytest.raises(ValueError):
            AnnealSchedule(alpha=1.0, total_steps=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_alpha_rejected(self, alpha):
        # NaN gave NaN weights; inf gave weight 0 until the last step
        with pytest.raises(ValueError, match="alpha"):
            AnnealSchedule(alpha=alpha, total_steps=10)


def _episode_and_batch():
    episode = text_episode(
        support=[("red apple", "a"), ("green pear", "b")],
        query=[("red fruit apple", "a"), ("green fruit pear", "b")],
        episode_classes=["a", "b"],
    )
    unlabeled = ["blue plum", "red apple"]
    paraphrases = [["azure plum", "blue fruit"], ["crimson apple", "red fruit"]]
    support, query = episode_records(episode)
    texts = [t for t, _ in support + query]
    texts += unlabeled + [p for row in paraphrases for p in row]
    vocab = Vocabulary.from_texts(texts)
    return episode, text_batch(unlabeled, paraphrases, vocab), vocab


class TestCombinedTrainingStep:
    def test_step_zero_equals_pure_supervised(self):
        episode, batch, vocab = _episode_and_batch()
        schedule = AnnealSchedule(alpha=1.0, total_steps=100)

        params_a = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(3))
        params_b = params_a.copy()
        adam_a = AdamState.for_params(params_a)
        adam_b = AdamState.for_params(params_b)

        losses = combined_training_step(episode, batch, params_a, adam_a, schedule, 0, vocab)
        sup_loss, sup_grads = supervised_episode_loss(episode, params_b, vocab)
        optimizer_step(adam_b, params_b, sup_grads)

        assert losses.weight == 0.0
        assert losses.total == losses.supervised == sup_loss
        np.testing.assert_array_equal(params_a.embedding, params_b.embedding)
        np.testing.assert_array_equal(params_a.projection, params_b.projection)
        np.testing.assert_array_equal(params_a.bias, params_b.bias)

    def test_final_step_equals_pure_unsupervised(self):
        episode, batch, vocab = _episode_and_batch()
        schedule = AnnealSchedule(alpha=1.0, total_steps=100)

        params_a = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(4))
        params_b = params_a.copy()
        adam_a = AdamState.for_params(params_a)
        adam_b = AdamState.for_params(params_b)

        losses = combined_training_step(episode, batch, params_a, adam_a, schedule, 100, vocab)
        unsup_loss, unsup_grads = unsupervised_loss(batch, params_b)
        optimizer_step(adam_b, params_b, unsup_grads)

        assert losses.weight == 1.0
        assert losses.total == losses.unsupervised == unsup_loss
        np.testing.assert_array_equal(params_a.embedding, params_b.embedding)

    def test_midpoint_gradient_is_average(self):
        episode, batch, vocab = _episode_and_batch()
        schedule = AnnealSchedule(alpha=1.0, total_steps=2)
        params = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(5))

        _, sup_grads = supervised_episode_loss(episode, params, vocab)
        _, unsup_grads = unsupervised_loss(batch, params)
        expected = 0.5 * (sup_grads.flat() + unsup_grads.flat())

        # recompute what the combined step applies by reading the Adam moment
        adam = AdamState.for_params(params)
        combined_training_step(episode, batch, params, adam, schedule, 1, vocab)
        applied = adam.m / (1.0 - adam.beta1)
        np.testing.assert_allclose(applied, expected, atol=1e-10)

    def test_loss_linearity_over_steps(self):
        episode, batch, vocab = _episode_and_batch()
        schedule = AnnealSchedule(alpha=2.0, total_steps=10)
        for step in (0, 3, 7, 10):
            params = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(6))
            adam = AdamState.for_params(params)
            losses = combined_training_step(episode, batch, params, adam, schedule, step, vocab)
            t = (step / 10) ** 2
            assert losses.total == pytest.approx(
                t * losses.unsupervised + (1 - t) * losses.supervised, rel=1e-12
            )
            assert losses.total >= 0.0
