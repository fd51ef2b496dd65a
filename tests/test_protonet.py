import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto.data import Dataset, sample_episode, split_classes
from paraproto.encoder import EncoderParams, Vocabulary, encode_batch, tokenize
from paraproto.numerics import COSINE, SQUARED_EUCLIDEAN, finite_difference_gradient, gradient_check
from paraproto.protonet import (
    EVAL_BLOCK_BYTES,
    classify,
    evaluate,
    prototypes,
    supervised_episode_loss,
)
from paraproto.synth import generate_synthetic_dataset
from paraproto.data import load_dataset
from rowstub import episode_records, text_episode


def _episode_setup(texts_by_class, k_shot, seed=0):
    episode = _episode_from(texts_by_class, k_shot)
    support, query = episode_records(episode)
    vocab = Vocabulary.from_texts([t for t, _ in support + query])
    params = EncoderParams.init(len(vocab), 5, 4, np.random.default_rng(seed))
    return episode, vocab, params


def encode_episode(episode, params, vocab):
    """Token lists, class index per row, embeddings and (prototypes, shots)
    of an episode's support-then-query rows, each row tokenized from its text."""
    support, query = episode_records(episode)
    tokens = [tokenize(text) for text, _ in support + query]
    classes, n_support = episode.classes, episode.n_support
    embs = encode_batch(params, tokens, vocab)
    protos, shots = prototypes(embs[:n_support], classes[:n_support], len(episode.episode_classes))
    return tokens, classes, embs, protos, shots


class TestComputePrototypes:
    """Prototypes of an episode's rows: per-class support means."""

    def test_single_shot_identity(self):
        episode, vocab, params = _episode_setup({"a": ["x y", "y"], "b": ["z", "x"]}, 1)
        _, _, embs, protos, shots = encode_episode(episode, params, vocab)
        np.testing.assert_array_equal(protos, embs[:2])
        np.testing.assert_array_equal(shots, [1, 1])

    def test_arithmetic_mean(self):
        episode, vocab, params = _episode_setup(
            {"a": ["x y", "y", "x"], "b": ["z", "x z", "y"]}, 2
        )
        tokens, classes, embs, protos, _ = encode_episode(episode, params, vocab)
        support = encode_batch(
            params, [tokenize(t) for t, _ in episode_records(episode)[0]], vocab
        )
        np.testing.assert_allclose(protos[0], support[:2].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(protos[1], support[2:].mean(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(classes, [0, 0, 1, 1, 0, 1])
        assert len(tokens) == len(embs) == 6

    def test_order_invariant(self):
        episode, vocab, params = _episode_setup(
            {"a": ["x y", "y", "x"], "b": ["z", "x z", "y"]}, 2
        )
        support, query = episode_records(episode)
        reordered = text_episode(support[::-1], query, episode.episode_classes)
        a = encode_episode(episode, params, vocab)[3]
        b = encode_episode(reordered, params, vocab)[3]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=10_000))
    def test_equal_add_at_reference(self, drawn, seed):
        # the np.add.at group sums that the bincount replaced, kept as a bit-exact reference
        _, groups = np.unique(drawn, return_inverse=True)
        n_groups = int(groups.max()) + 1
        embs = np.random.default_rng(seed).normal(size=(len(groups), 3))
        protos, shots = prototypes(embs, groups, n_groups)
        expected = np.zeros((n_groups, 3))
        np.add.at(expected, groups, embs)
        expected /= np.bincount(groups)[:, None]
        assert np.array_equal(protos, expected)
        assert np.array_equal(shots, np.bincount(groups))


class TestClassify:
    def test_nearest_prototype_wins(self):
        protos = np.array([[0.0, 0.0], [10.0, 10.0]])
        probs = classify(np.array([0.1, -0.1]), protos)
        assert np.argmax(probs) == 0
        assert probs[0] > 0.99

    def test_equidistant_is_uniform(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        probs = classify(np.array([0.0, 5.0]), protos)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_hand_computed_distances(self):
        # distances 0 and ln 2 -> [2/3, 1/3]
        protos = np.array([[0.0], [math.sqrt(math.log(2.0))]])
        probs = classify(np.array([0.0]), protos)
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], rtol=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(4, 3))
        query = rng.normal(size=3)
        probs = classify(query, vectors)
        perm = [2, 0, 3, 1]
        np.testing.assert_allclose(classify(query, vectors[perm]), probs[perm])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify(np.zeros(3), np.eye(2))


def _episode_from(texts_by_class: dict[str, list[str]], k_shot: int):
    support, query = [], []
    for label, texts in texts_by_class.items():
        for text in texts[:k_shot]:
            support.append((text, label))
        for text in texts[k_shot:]:
            query.append((text, label))
    return text_episode(support, query, list(texts_by_class))


class TestSupervisedEpisodeLoss:
    def test_collapsed_encoder_gives_log_c(self):
        episode = _episode_from(
            {f"c{i}": [f"word{i} a", f"word{i} b"] for i in range(5)}, k_shot=1
        )
        support, query = episode_records(episode)
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(0))
        params.embedding[:] = 0.0
        params.projection[:] = 0.0
        params.bias[:] = 0.0
        loss, _ = supervised_episode_loss(episode, params, vocab)
        assert loss == pytest.approx(math.log(5.0), rel=1e-9)

    def test_separated_classes_give_near_zero_loss(self):
        episode = _episode_from({"a": ["aa aa", "aa aa"], "b": ["bb bb", "bb bb"]}, k_shot=1)
        vocab = Vocabulary.from_texts(["aa bb"])
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(1))
        # push the two words far apart in embedding space
        params.embedding[vocab.index("aa")] = 3.0
        params.embedding[vocab.index("bb")] = -3.0
        loss, _ = supervised_episode_loss(episode, params, vocab)
        assert loss < 0.01

    def test_loss_nonnegative(self):
        episode = _episode_from({"a": ["x y", "y z"], "b": ["p q", "q r"]}, k_shot=1)
        support, query = episode_records(episode)
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 6, 6, np.random.default_rng(2))
        loss, _ = supervised_episode_loss(episode, params, vocab)
        assert loss >= 0.0

    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    def test_gradients_match_finite_differences(self, distance):
        rng = np.random.default_rng(17)
        episode = _episode_from(
            {"a": ["foo bar", "bar baz", "foo baz"], "b": ["qux quux", "quux foo", "qux bar"]},
            k_shot=2,
        )
        support, query = episode_records(episode)
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 5, 4, rng)

        def loss_fn(flat):
            return supervised_episode_loss(episode, params.with_flat(flat), vocab, distance)[0]

        _, grads = supervised_episode_loss(episode, params, vocab, distance)
        numeric = finite_difference_gradient(loss_fn, params.flat())
        report = gradient_check(grads.flat(), numeric)
        assert report.max_relative_error < 1e-4


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30, seed=0)
    return load_dataset(path)


class TestEvaluate:
    def test_random_encoder_collapsed_is_chance(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        # collapse: every sentence maps to the same point, so argmax ties break
        # to index 0 and accuracy is exactly chance on average
        params.embedding[:] = 0.0
        result = evaluate(
            params, vocab, corpus, split, "train", 5, 1, 5, 600, np.random.default_rng(1)
        )
        assert result.mean_accuracy == pytest.approx(0.2, abs=0.03)

    def test_oracle_encoder_is_perfect(self):
        rows = [(f"kw{c} filler", f"c{c}") for c in range(4) for _ in range(8)]
        ds = Dataset(records=rows)
        split = split_classes(ds, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(ds.texts())
        params = EncoderParams.init(len(vocab), 16, 16, np.random.default_rng(0))
        for c in range(4):
            params.embedding[vocab.index(f"kw{c}")] = 0.0
            params.embedding[vocab.index(f"kw{c}")][c % 16] = 5.0
        result = evaluate(
            params, vocab, ds, split, "train", 2, 1, 3, 50, np.random.default_rng(2)
        )
        assert result.mean_accuracy == 1.0

    def test_never_mutates_parameters(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(3))
        before = params.copy()
        evaluate(params, vocab, corpus, split, "valid", 5, 1, 5, 20, np.random.default_rng(4))
        np.testing.assert_array_equal(params.embedding, before.embedding)
        np.testing.assert_array_equal(params.projection, before.projection)
        np.testing.assert_array_equal(params.bias, before.bias)

    def test_non_finite_distance_rejected(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(7))
        params.bias[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(params, vocab, corpus, split, "test", 5, 1, 5, 2, np.random.default_rng(8))

    def test_mean_matches_per_episode_values(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(5))
        result = evaluate(
            params, vocab, corpus, split, "test", 5, 1, 5, 30, np.random.default_rng(6)
        )
        assert result.mean_accuracy == pytest.approx(np.mean(result.per_episode_accuracies))
        assert result.episode_count == 30


def _per_episode_encode_evaluate(params, vocab, dataset, split, part, n_way, k_shot,
                                 query_per_class, n_episodes, rng, distance):
    """evaluate as it was before each part was encoded once: every episode
    tokenizes and encodes its own support and query rows."""
    accuracies = []
    for _ in range(n_episodes):
        ep = sample_episode(dataset, split, part, n_way, k_shot, query_per_class, 0, rng)
        _, classes, embs, protos, _ = encode_episode(ep, params, vocab)
        support, query = episode_records(ep)
        n_support = len(support)
        queries = embs[n_support:]
        if distance == SQUARED_EUCLIDEAN:
            dists = ((queries[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        else:
            dists = 1.0 - (queries @ protos.T) / np.outer(
                np.linalg.norm(queries, axis=1), np.linalg.norm(protos, axis=1)
            )
        correct = np.count_nonzero(np.argmin(dists, axis=1) == classes[n_support:])
        accuracies.append(correct / len(query))
    return accuracies


class TestEvaluateEncodesPartOnce:
    """Encoding the rows of a part once per call, and scoring episodes in
    blocks, gives the per-episode accuracies of encoding and scoring every
    episode on its own, and leaves the generator where the oracle does."""

    # 5-way, 5 queries per class, output_dim 8: episodes per scoring block
    BLOCK = EVAL_BLOCK_BYTES // (25 * 5 * 8 * 8)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    @pytest.mark.parametrize("k_shot", [1, 2])
    @pytest.mark.parametrize("n_episodes", [1, 7, BLOCK + 1, 40])
    def test_matches_per_episode_encode_oracle(self, corpus, seed, distance, k_shot, n_episodes):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=seed)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(seed))
        args = (params, vocab, corpus, split, "valid", 5, k_shot, 5, n_episodes)
        rng, rng_oracle = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        result = evaluate(*args, rng, distance)
        oracle = _per_episode_encode_evaluate(*args, rng_oracle, distance)
        assert result.per_episode_accuracies == oracle
        assert result.episode_count == n_episodes
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_no_support_error_kept(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="has no support examples"):
            evaluate(params, vocab, corpus, split, "valid", 5, 0, 5, 3, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "n_way, k_shot, query_per_class, n_episodes, message",
        [
            (5, 1, 5, 0, "n_episodes must be >= 1"),
            (5, 1, 5, -2, "n_episodes must be >= 1"),
            (5, -1, 5, 3, "has no support examples"),
            (5, 1, 0, 3, "query_per_class must be >= 1"),
            (1, 1, 5, 3, "n_way must be >= 2"),
        ],
    )
    def test_degenerate_episode_arguments_rejected_before_any_draw(
        self, corpus, n_way, k_shot, query_per_class, n_episodes, message
    ):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            evaluate(params, vocab, corpus, split, "valid", n_way, k_shot, query_per_class,
                     n_episodes, rng)
        assert rng.bit_generator.state == before

    def test_block_memory_stays_small(self, corpus):
        # materializing all 200 episodes' embeddings and distance differences
        # at output_dim 32 would take about 7.7 MB
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 32, 32, np.random.default_rng(0))
        corpus.token_rows(vocab)  # built once per training run, not per evaluation
        tracemalloc.start()
        try:
            evaluate(params, vocab, corpus, split, "valid", 5, 1, 5, 200, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
