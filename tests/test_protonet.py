import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto.data import Dataset, EpisodeSource, sample_episode, split_classes
from paraproto.encoder import EncoderParams, TokenRows, Vocabulary, forward, tokenize
from gradcheck import finite_difference_gradient, gradient_check
from paraproto.numerics import COSINE, SQUARED_EUCLIDEAN
from paraproto import protonet
from paraproto.protonet import (
    EVAL_BLOCK_BYTES,
    classify,
    evaluate,
    prototypes,
    supervised_episode_loss,
)
from paraproto.synth import generate_synthetic_dataset
from paraproto.data import load_dataset
from rowstub import episode_records, episode_tokens


def _episode_setup(texts_by_class, k_shot, seed=0):
    """An episode's (support, query, labels) records, its vocabulary and
    parameters."""
    support, query = _episode_from(texts_by_class, k_shot)
    vocab = Vocabulary.from_texts([t for t, _ in support + query])
    params = EncoderParams.init(len(vocab), 5, 4, np.random.default_rng(seed))
    return (support, query, list(texts_by_class)), vocab, params


def encode_episode(episode, params, vocab):
    """Token lists, class index per row, embeddings and prototypes of an
    episode's support-then-query records, each row tokenized from its text;
    each row's class is its label's index in the episode's labels. The
    support rows are put class by class, in label order, for `prototypes`."""
    support, query, labels = episode
    order = {label: i for i, label in enumerate(labels)}
    tokens = [tokenize(text) for text, _ in support + query]
    classes, n_support = np.array([order[label] for _, label in support + query]), len(support)
    embs = forward(params, TokenRows.from_tokens(tokens, vocab)).out
    by_class = np.argsort(classes[:n_support], kind="stable")
    protos = prototypes(embs[by_class], n_support // len(labels))
    return tokens, classes, embs, protos


def run_tokens(dataset, vocab):
    """Every record's ids, row i for record i, as a training run builds them."""
    return TokenRows.from_texts(dataset.texts(), vocab)


class TestComputePrototypes:
    """Prototypes of an episode's rows: per-class support means."""

    def test_single_shot_identity(self):
        episode, vocab, params = _episode_setup({"a": ["x y", "y"], "b": ["z", "x"]}, 1)
        _, _, embs, protos = encode_episode(episode, params, vocab)
        np.testing.assert_array_equal(protos, embs[:2])

    def test_arithmetic_mean(self):
        episode, vocab, params = _episode_setup(
            {"a": ["x y", "y", "x"], "b": ["z", "x z", "y"]}, 2
        )
        tokens, classes, embs, protos = encode_episode(episode, params, vocab)
        support = forward(params, TokenRows.from_tokens([tokenize(t) for t, _ in episode[0]], vocab)).out
        np.testing.assert_allclose(protos[0], support[:2].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(protos[1], support[2:].mean(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(classes, [0, 0, 1, 1, 0, 1])
        assert len(tokens) == len(embs) == 6

    def test_order_invariant(self):
        episode, vocab, params = _episode_setup(
            {"a": ["x y", "y", "x"], "b": ["z", "x z", "y"]}, 2
        )
        support, query, labels = episode
        reordered = (support[::-1], query, labels)
        a = encode_episode(episode, params, vocab)[3]
        b = encode_episode(reordered, params, vocab)[3]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=2),
           st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10_000))
    def test_equal_add_at_reference(self, lead, n_groups, shots, seed):
        # np.add.at group sums, kept as a bit-exact reference: each episode's
        # support rows stored group by group, `shots` rows per group
        support = np.random.default_rng(seed).normal(size=(*lead, n_groups * shots, 3))
        groups = np.repeat(np.arange(n_groups), shots)
        expected = np.zeros((*lead, n_groups, 3))
        for episode in np.ndindex(*lead):
            np.add.at(expected[episode], groups, support[episode])
        expected /= shots
        assert np.array_equal(prototypes(support, shots), expected)


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
    """(text, label) support and query records, class by class: each
    class's first k_shot texts are support, the rest query."""
    support, query = [], []
    for label, texts in texts_by_class.items():
        for text in texts[:k_shot]:
            support.append((text, label))
        for text in texts[k_shot:]:
            query.append((text, label))
    return support, query


class TestSupervisedEpisodeLoss:
    def test_collapsed_encoder_gives_log_c(self):
        support, query = _episode_from(
            {f"c{i}": [f"word{i} a", f"word{i} b"] for i in range(5)}, k_shot=1
        )
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(0))
        params.embedding[:] = 0.0
        params.projection[:] = 0.0
        params.bias[:] = 0.0
        loss, _ = supervised_episode_loss(params, episode_tokens(support, query, vocab), 5, 1)
        assert loss == pytest.approx(math.log(5.0), rel=1e-9)

    def test_separated_classes_give_near_zero_loss(self):
        support, query = _episode_from({"a": ["aa aa", "aa aa"], "b": ["bb bb", "bb bb"]}, k_shot=1)
        vocab = Vocabulary.from_texts(["aa bb"])
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(1))
        # push the two words far apart in embedding space
        params.embedding[vocab.index("aa")] = 3.0
        params.embedding[vocab.index("bb")] = -3.0
        loss, _ = supervised_episode_loss(params, episode_tokens(support, query, vocab), 2, 1)
        assert loss < 0.01

    def test_loss_nonnegative(self):
        support, query = _episode_from({"a": ["x y", "y z"], "b": ["p q", "q r"]}, k_shot=1)
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 6, 6, np.random.default_rng(2))
        loss, _ = supervised_episode_loss(params, episode_tokens(support, query, vocab), 2, 1)
        assert loss >= 0.0

    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    def test_gradients_match_finite_differences(self, distance):
        rng = np.random.default_rng(17)
        support, query = _episode_from(
            {"a": ["foo bar", "bar baz", "foo baz"], "b": ["qux quux", "quux foo", "qux bar"]},
            k_shot=2,
        )
        vocab = Vocabulary.from_texts([t for t, _ in support + query])
        params = EncoderParams.init(len(vocab), 5, 4, rng)
        tokens = episode_tokens(support, query, vocab)

        def loss_fn(flat):
            return supervised_episode_loss(params.with_flat(flat), tokens, 2, 2, distance)[0]

        _, grads = supervised_episode_loss(params, tokens, 2, 2, distance)
        numeric = finite_difference_gradient(loss_fn, params.vector)
        report = gradient_check(grads.vector, numeric)
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
            params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "train", 5, 1, 5), 600,
            np.random.default_rng(1),
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
            params, run_tokens(ds, vocab), EpisodeSource(ds, split, "train", 2, 1, 3), 50, np.random.default_rng(2)
        )
        assert result.mean_accuracy == 1.0

    def test_never_mutates_parameters(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(3))
        before = params.copy()
        evaluate(params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "valid", 5, 1, 5), 20,
                 np.random.default_rng(4))
        np.testing.assert_array_equal(params.embedding, before.embedding)
        np.testing.assert_array_equal(params.projection, before.projection)
        np.testing.assert_array_equal(params.bias, before.bias)

    def test_non_finite_distance_rejected(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(7))
        params.bias[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "test", 5, 1, 5), 2,
                     np.random.default_rng(8))

    def test_mean_matches_per_episode_values(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(5))
        result = evaluate(
            params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "test", 5, 1, 5), 30,
            np.random.default_rng(6),
        )
        assert result.mean_accuracy == pytest.approx(np.mean(result.per_episode_accuracies))
        assert result.episode_count == 30


def _per_episode_encode_evaluate(params, vocab, dataset, split, part, n_way, k_shot,
                                 query_per_class, n_episodes, rng, distance):
    """evaluate as it was before each part was encoded once: every episode
    tokenizes and encodes its own support and query rows."""
    accuracies = []
    for _ in range(n_episodes):
        rows, _ = sample_episode(dataset, split, part, n_way, k_shot, query_per_class, 0, rng)
        support, query = episode_records(dataset, rows[0], n_way, k_shot)
        labels = list(dict.fromkeys(label for _, label in support))  # the drawn class order
        _, classes, embs, protos = encode_episode((support, query, labels), params, vocab)
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

    @staticmethod
    def block(k_shot):
        """Episodes per scoring block at 5-way, 5 queries per class and
        output_dim 8: each holds its (5 * k_shot + 25, 8) gathered embeddings
        and (25, 5) distances, in float64."""
        return EVAL_BLOCK_BYTES // (((5 * k_shot + 25) * 8 + 25 * 5) * 8)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    @pytest.mark.parametrize("k_shot", [1, 2])
    @pytest.mark.parametrize("size", [
        pytest.param(lambda block: 1, id="1"),
        pytest.param(lambda block: 7, id="7"),
        pytest.param(lambda block: block, id="block"),
        pytest.param(lambda block: block + 1, id="block+1"),
        pytest.param(lambda block: 2 * block + 1, id="2block+1"),
    ])
    def test_matches_per_episode_encode_oracle(self, corpus, monkeypatch, seed, distance, k_shot, size):
        block = self.block(k_shot)
        n_episodes = size(block)
        scored = []  # episodes per call of the distance, one call per block
        distances = protonet._pairwise_distances
        monkeypatch.setattr(protonet, "_pairwise_distances",
                            lambda queries, protos, kind: scored.append(len(queries)) or distances(queries, protos, kind))
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=seed)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(seed))
        args = (corpus, split, "valid", 5, k_shot, 5)
        rng, rng_oracle = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        result = evaluate(params, run_tokens(corpus, vocab), EpisodeSource(*args), n_episodes, rng, distance)
        assert scored == [block] * (n_episodes // block) + [n_episodes % block] * (n_episodes % block > 0)
        monkeypatch.undo()
        oracle = _per_episode_encode_evaluate(params, vocab, *args, n_episodes, rng_oracle, distance)
        assert result.per_episode_accuracies == oracle
        assert result.episode_count == n_episodes
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    @pytest.mark.parametrize("k_shot", [1, 2])
    def test_blocks_of_a_large_part_stay_within_the_cap(self, corpus, monkeypatch, distance, k_shot):
        # the 0.8 test part holds 480 rows, whose (480, 480) pairwise products
        # would take 1.8 MB: a block gathers its episodes' embeddings instead
        split = split_classes(corpus, (0.1, 0.1, 0.8), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        args = (corpus, split, "test", 5, k_shot, 5)
        source = EpisodeSource(*args)
        assert len(source.rows) ** 2 * 8 > EVAL_BLOCK_BYTES
        scored = []  # episodes per call of the distance, one call per block
        distances = protonet._pairwise_distances
        monkeypatch.setattr(protonet, "_pairwise_distances",
                            lambda queries, protos, kind: scored.append(len(queries)) or distances(queries, protos, kind))
        rng, rng_oracle = np.random.default_rng(9), np.random.default_rng(9)
        result = evaluate(params, run_tokens(corpus, vocab), source, 60, rng, distance)
        monkeypatch.undo()
        assert len(scored) > 1 and sum(scored) == 60
        for size in scored:
            # each episode's (5 * k_shot + 25, 8) gathered embeddings and
            # (25, 5) distances, in float64
            assert size * ((5 * k_shot + 25) * 8 + 25 * 5) * 8 <= EVAL_BLOCK_BYTES
        oracle = _per_episode_encode_evaluate(params, vocab, *args, 60, rng_oracle, distance)
        assert result.per_episode_accuracies == oracle

    @pytest.mark.parametrize("distance", [SQUARED_EUCLIDEAN, COSINE])
    @pytest.mark.parametrize("k_shot", [1, 2])
    def test_exact_ties_go_to_the_first_drawn_class(self, corpus, distance, k_shot):
        # every row of one valid class and every other row of a second hold
        # one text, so an episode whose second class draws only that text as
        # support has two equal prototypes: every query is equidistant from
        # both, and the first drawn of the two takes those nearest to them
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        first, second = sorted(split.valid_classes)[:2]
        seen: dict[str, int] = {}
        records = []
        for text, label in corpus.records:
            seen[label] = seen.get(label, 0) + 1
            same = label == first or (label == second and seen[label] % 2 == 1)
            records.append(("the same words" if same else text, label))
        tied = Dataset(records=records)
        vocab = Vocabulary.from_texts(tied.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        args = (tied, split, "valid", 5, k_shot, 5)
        rng, rng_oracle = np.random.default_rng(3), np.random.default_rng(3)
        result = evaluate(params, run_tokens(tied, vocab), EpisodeSource(*args), 100, rng, distance)
        oracle = _per_episode_encode_evaluate(params, vocab, *args, 100, rng_oracle, distance)
        assert result.per_episode_accuracies == oracle

    def test_no_support_error_kept(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="has no support examples"):
            evaluate(params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "valid", 5, 0, 5), 3,
                     np.random.default_rng(1))

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
            evaluate(params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "valid", n_way, k_shot,
                     query_per_class), n_episodes, rng)
        assert rng.bit_generator.state == before

    def test_source_with_unlabeled_rows_rejected_before_any_draw(self, corpus):
        # its draw would take one more key per record, and so other episodes
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^an evaluation source draws no unlabeled rows$"):
            evaluate(params, run_tokens(corpus, vocab), EpisodeSource(corpus, split, "valid", 5, 1, 5, 3), 3, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n_rows", [0, 1, 599, 601])
    def test_tokens_of_another_length_rejected_before_any_draw(self, corpus, n_rows):
        # row i of the token rows is record i, so a shorter or longer set
        # cannot belong to this dataset
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 8, 8, np.random.default_rng(0))
        texts = (corpus.texts() * 2)[:n_rows]
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^{n_rows} token rows for a dataset of 600 records$"):
            evaluate(params, TokenRows.from_texts(texts, vocab), EpisodeSource(corpus, split, "valid", 5, 1, 5), 3, rng)
        assert rng.bit_generator.state == before

    def test_block_memory_stays_small(self, corpus):
        # gathering all 200 episodes' embeddings and distances at output_dim
        # 32 at once would take about 1.7 MB
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        vocab = Vocabulary.from_texts(corpus.texts())
        params = EncoderParams.init(len(vocab), 32, 32, np.random.default_rng(0))
        tokens = run_tokens(corpus, vocab)  # built once per training run, not per evaluation
        tracemalloc.start()
        try:
            evaluate(params, tokens, EpisodeSource(corpus, split, "valid", 5, 1, 5), 200, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
