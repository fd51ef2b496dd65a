import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto.encoder import (
    UNK,
    AdamState,
    EncoderParams,
    TokenRows,
    Vocabulary,
    encode,
    encode_backward,
    encode_batch,
    encode_batch_backward,
    forward,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    tokenize,
)
from paraproto.numerics import finite_difference_gradient, gradient_check


class TestTokenize:
    def test_punctuation_detached(self):
        assert tokenize("How long?") == ["how", "long", "?"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_kept_whole(self):
        assert tokenize("can you play m3 file") == ["can", "you", "play", "m3", "file"]

    def test_deterministic_lowercasing(self):
        assert tokenize("Hello WORLD") == tokenize("hello world")


class TestVocabulary:
    def test_unk_always_present(self):
        vocab = Vocabulary.from_texts(["a b", "c"])
        assert "<unk>" in vocab.tokens
        assert vocab.index(UNK) == 0

    def test_indices_dense(self):
        vocab = Vocabulary.from_texts(["b a", "c a"])
        assert sorted(vocab.index(t) for t in vocab.tokens) == list(range(len(vocab)))

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary.from_texts(["a b"])
        assert vocab.index("zzz") == vocab.index(UNK)

    def test_empty_token_list_becomes_unk(self):
        vocab = Vocabulary.from_texts(["a"])
        np.testing.assert_array_equal(TokenRows.from_tokens([[]], vocab).ids, [0])


def _small_setup(seed=0, v_extra=("alpha", "beta", "gamma")):
    vocab = Vocabulary.from_texts([" ".join(v_extra)])
    params = EncoderParams.init(len(vocab), embed_dim=5, output_dim=4,
                                rng=np.random.default_rng(seed))
    return vocab, params


class TestEncode:
    def test_zero_params_give_zero_vector(self):
        vocab, params = _small_setup()
        params.embedding[:] = 0.0
        params.projection[:] = 0.0
        params.bias[:] = 0.0
        np.testing.assert_array_equal(encode(params, ["alpha"], vocab), np.zeros(4))

    def test_mean_pooling_idempotent_on_repeats(self):
        vocab, params = _small_setup()
        once = encode(params, ["alpha"], vocab)
        thrice = encode(params, ["alpha", "alpha", "alpha"], vocab)
        np.testing.assert_allclose(once, thrice)

    def test_matches_manual_matvec(self):
        vocab, params = _small_setup(seed=3)
        tokens = ["alpha", "beta", "gamma"]
        ids = [vocab.index(t) for t in tokens]
        mean = sum(params.embedding[i] for i in ids) / 3.0
        manual = np.tanh(
            np.array([np.dot(row, mean) for row in params.projection]) + params.bias
        )
        np.testing.assert_allclose(encode(params, tokens, vocab), manual, rtol=1e-12)

    def test_permutation_invariant(self):
        vocab, params = _small_setup(seed=5)
        a = encode(params, ["alpha", "beta", "gamma"], vocab)
        b = encode(params, ["gamma", "alpha", "beta"], vocab)
        np.testing.assert_allclose(a, b)

    def test_output_in_tanh_range(self):
        vocab, params = _small_setup(seed=9)
        out = encode(params, ["alpha", "beta"], vocab)
        assert np.all(out > -1.0) and np.all(out < 1.0)


class TestEncodeBackward:
    def test_zero_upstream_zero_grads(self):
        vocab, params = _small_setup()
        grads = encode_backward(params, ["alpha"], vocab, np.zeros(4))
        assert not grads.embedding.any()
        assert not grads.projection.any()
        assert not grads.bias.any()

    def test_untouched_rows_get_zero_gradient(self):
        vocab, params = _small_setup()
        grads = encode_backward(params, ["alpha"], vocab, np.ones(4))
        untouched = vocab.index("beta")
        assert not grads.embedding[untouched].any()
        assert grads.embedding[vocab.index("alpha")].any()

    def test_dimension_mismatch_rejected(self):
        vocab, params = _small_setup()
        with pytest.raises(ValueError):
            encode_backward(params, ["alpha"], vocab, np.zeros(3))

    def test_matches_finite_differences(self):
        vocab, params = _small_setup(seed=11)
        tokens = ["alpha", "beta", "beta"]
        upstream = np.random.default_rng(13).normal(size=4)

        def loss_fn(flat):
            p = params.with_flat(flat)
            return float(np.dot(upstream, encode(p, tokens, vocab)))

        grads = encode_backward(params, tokens, vocab, upstream)
        numeric = finite_difference_gradient(loss_fn, params.flat())
        report = gradient_check(grads.flat(), numeric)
        assert report.max_relative_error < 1e-4


RAGGED = [["alpha", "beta", "beta"], [], ["gamma"], ["zeta", "alpha"], ["beta", "gamma", "alpha", "gamma"]]


def _forward_tokens(params, token_lists, vocab):
    return forward(params, TokenRows.from_tokens(token_lists, vocab))


class TestEncodeBatch:
    def test_ragged_batch_matches_per_row_formula(self):
        vocab, params = _small_setup(seed=15)
        out = encode_batch(params, RAGGED, vocab)
        assert out.shape == (len(RAGGED), 4)
        for row, tokens in zip(out, RAGGED):
            # an empty row is a lone UNK; unknown tokens ("zeta") map to UNK
            ids = [vocab.index(t) for t in tokens] or [vocab.index(UNK)]
            mean = sum(params.embedding[i] for i in ids) / len(ids)
            manual = np.tanh(
                np.array([np.dot(w, mean) for w in params.projection]) + params.bias
            )
            np.testing.assert_allclose(row, manual, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        vocab, params = _small_setup()
        with pytest.raises(ValueError):
            encode_batch(params, [], vocab)

    def test_backward_matches_finite_differences(self):
        vocab, params = _small_setup(seed=17)
        upstream = np.random.default_rng(19).normal(size=(len(RAGGED), 4))

        def loss_fn(flat):
            return float(np.sum(upstream * encode_batch(params.with_flat(flat), RAGGED, vocab)))

        grads = encode_batch_backward(params, _forward_tokens(params, RAGGED, vocab), upstream)
        numeric = finite_difference_gradient(loss_fn, params.flat())
        report = gradient_check(grads.flat(), numeric)
        assert report.max_relative_error < 1e-4

    def test_backward_upstream_shape_checked(self):
        vocab, params = _small_setup()
        with pytest.raises(ValueError):
            encode_batch_backward(
                params, _forward_tokens(params, RAGGED, vocab), np.zeros((len(RAGGED) - 1, 4))
            )


class TestTokenRows:
    """The per-run id table: rows gathered from a larger CSR are the rows
    built from their own token lists (so the per-row formula check of
    TestEncodeBatch covers them), and feed the same backward."""

    # RAGGED's rows sit at these positions of a larger, shuffled corpus
    POSITIONS = np.array([4, 1, 6, 3, 5])

    def _corpus(self, vocab):
        lists = [["gamma", "gamma"], [], ["beta"], ["zeta", "alpha"], ["alpha", "beta", "beta"],
                 ["beta", "gamma", "alpha", "gamma"], ["gamma"]]
        return TokenRows.from_tokens(lists, vocab)

    def test_take_equals_rows_built_directly(self):
        vocab, _ = _small_setup()
        taken = self._corpus(vocab).take(self.POSITIONS)
        direct = TokenRows.from_tokens(RAGGED, vocab)
        for name in ("ids", "starts", "counts"):
            np.testing.assert_array_equal(getattr(taken, name), getattr(direct, name))

    def test_backward_from_handed_in_forward_equals_recomputed(self):
        vocab, params = _small_setup(seed=29)
        upstream = np.random.default_rng(31).normal(size=(len(RAGGED), 4))
        handed = encode_batch_backward(
            params, forward(params, self._corpus(vocab).take(self.POSITIONS)), upstream
        )
        # recomputed: a fresh forward over the token lists, as a caller
        # without the training path's intermediates would run it
        recomputed = encode_batch_backward(params, _forward_tokens(params, RAGGED, vocab), upstream)
        for a, b in zip(handed.arrays(), recomputed.arrays()):
            np.testing.assert_array_equal(a, b)
        per_row = [encode_backward(params, t, vocab, u) for t, u in zip(RAGGED, upstream)]
        for i, a in enumerate(handed.arrays()):
            np.testing.assert_allclose(a, sum(g.arrays()[i] for g in per_row), rtol=1e-12, atol=1e-15)


# the per-array code the flat layout replaced, kept as bit-exact references
def _add_at_backward(params, fwd, upstream):
    """Gradients as three arrays, the embedding's by np.add.at into zeros."""
    counts = fwd.rows.counts
    d_pre = upstream * (1.0 - fwd.out * fwd.out)
    d_means = (d_pre @ params.projection) / counts[:, None]
    d_embedding = np.zeros_like(params.embedding)
    np.add.at(d_embedding, fwd.rows.ids, np.repeat(d_means, counts, axis=0))
    return d_embedding, d_pre.T @ fwd.means, d_pre.sum(axis=0)


def _per_array_adam_step(state, arrays, grads, ms, vs, step):
    """One Adam update array by array, with the library's expression order."""
    bc1 = 1.0 - state.beta1**step
    bc2 = 1.0 - state.beta2**step
    for p, g, m, v in zip(arrays, grads, ms, vs):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


# token lists with repeats, out-of-vocabulary tokens and empty (lone-UNK) rows
_BATCHES = st.lists(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "zeta"]), max_size=6),
    min_size=1, max_size=8,
)


class TestFlatLayoutMatchesPerArray:
    @settings(max_examples=60, deadline=None)
    @given(_BATCHES, st.integers(min_value=0, max_value=10_000))
    def test_backward_equals_add_at(self, batch, seed):
        vocab, params = _small_setup(seed=seed)
        fwd = _forward_tokens(params, batch, vocab)
        upstream = np.random.default_rng(seed).normal(size=fwd.out.shape)
        grads = encode_batch_backward(params, fwd, upstream)
        for got, want in zip(grads.arrays(), _add_at_backward(params, fwd, upstream)):
            assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(_BATCHES, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_adam_steps_equal_per_array_loop(self, batch, n_steps, seed):
        vocab, params = _small_setup(seed=seed)
        state = AdamState.for_params(params, learning_rate=0.05)
        ref = [a.copy() for a in params.arrays()]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        rng = np.random.default_rng(seed)
        for step in range(1, n_steps + 1):
            fwd = _forward_tokens(params, batch, vocab)
            grads = encode_batch_backward(params, fwd, rng.normal(size=fwd.out.shape))
            optimizer_step(state, params, grads)
            _per_array_adam_step(state, ref, grads.arrays(), ref_m, ref_v, step)
            for got, want in zip(params.arrays(), ref):
                assert np.array_equal(got, want)
        assert np.array_equal(state.m, np.concatenate([m.ravel() for m in ref_m]))
        assert np.array_equal(state.v, np.concatenate([v.ravel() for v in ref_v]))


class TestFlatLayout:
    """Parameters, gradients and each Adam moment are each one vector, the
    three arrays views of it, so per-array copies or loops over the arrays
    cannot come back unnoticed."""

    def test_params_grads_and_moments_are_one_vector_each(self):
        vocab, params = _small_setup()
        vector = params.vector
        state = AdamState.for_params(params)
        moments = state.m, state.v
        grads = encode_backward(params, ["alpha", "beta", "beta"], vocab, np.ones(4))
        optimizer_step(state, params, grads)
        assert params.vector is vector and (state.m, state.v) == moments
        for p in (params, grads, params.copy(), params.with_flat(params.flat())):
            assert p.vector.shape == (sum(a.size for a in p.arrays()),)
            assert all(np.shares_memory(a, p.vector) for a in p.arrays())
        assert np.shares_memory(params.flat(), vector)
        assert all(m.shape == vector.shape for m in moments)
        assert not np.shares_memory(params.copy().vector, vector)

    def test_built_from_arrays_copies_them(self):
        arrays = [np.ones((3, 2)), np.ones((4, 2)), np.ones(4)]
        params = EncoderParams(*arrays)
        assert params.dims == (3, 2, 4)
        assert not any(np.shares_memory(a, params.vector) for a in arrays)

    @pytest.mark.parametrize("shapes", [
        ((3, 4), (2, 5), (2,)),  # projection width differs from the embedding's
        ((3, 4), (2, 4), (3,)),  # bias length differs from the projection's rows
        ((12,), (2, 4), (2,)),
        ((3, 4), (2, 4), (2, 1)),
    ])
    def test_disagreeing_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match="shapes disagree"):
            EncoderParams(*[np.zeros(shape) for shape in shapes])

    def test_with_flat_size_checked(self):
        _, params = _small_setup()
        with pytest.raises(ValueError, match="shape"):
            params.with_flat(np.zeros(params.vector.size + 1))


def _zero_gradients(params):
    return params.with_flat(np.zeros(params.flat().size))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        vocab, params = _small_setup()
        before = params.copy()
        state = AdamState.for_params(params)
        optimizer_step(state, params, _zero_gradients(params))
        np.testing.assert_array_equal(params.embedding, before.embedding)
        np.testing.assert_array_equal(params.projection, before.projection)
        np.testing.assert_array_equal(params.bias, before.bias)

    def test_single_step_matches_hand_computation(self):
        # one scalar parameter, one step from a fresh state
        vocab, params = _small_setup()
        params.bias[:] = 0.0
        state = AdamState.for_params(params, learning_rate=0.1)
        grads = _zero_gradients(params)
        grads.bias[0] = 2.0
        optimizer_step(state, params, grads)
        # m = 0.2, v = 0.004, m_hat = 2.0, v_hat = 4.0
        expected = -0.1 * 2.0 / (np.sqrt(4.0) + state.epsilon)
        assert params.bias[0] == pytest.approx(expected, rel=1e-12)
        assert state.step_count == 1

    def test_nonfinite_gradient_rejected(self):
        vocab, params = _small_setup()
        state = AdamState.for_params(params)
        grads = _zero_gradients(params)
        grads.bias[0] = np.inf
        with pytest.raises(ValueError):
            optimizer_step(state, params, grads)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": np.nan}, {"learning_rate": np.inf}, {"learning_rate": 0.0},
        {"learning_rate": -1e-3}, {"beta1": 1.0}, {"beta1": -0.1}, {"beta1": np.nan},
        {"beta2": 1.0}, {"beta2": np.nan}, {"epsilon": 0.0}, {"epsilon": np.nan},
        {"epsilon": np.inf},
    ])
    def test_bad_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdamState(**kwargs)

    def test_nan_learning_rate_rejected_before_any_step(self):
        # a NaN rate would turn every parameter NaN even on a zero gradient
        _, params = _small_setup()
        with pytest.raises(ValueError, match="learning_rate"):
            AdamState.for_params(params, learning_rate=float("nan"))

    def test_quadratic_loss_decreases(self):
        vocab, params = _small_setup(seed=21)
        state = AdamState.for_params(params, learning_rate=0.05)
        target = np.zeros_like(params.bias)

        def loss():
            return float(np.sum((params.bias - target) ** 2))

        params.bias[:] = 3.0
        losses = [loss()]
        for _ in range(200):
            grads = _zero_gradients(params)
            grads.bias[:] = 2.0 * (params.bias - target)
            optimizer_step(state, params, grads)
            losses.append(loss())
        # monotone during the descent phase (oscillation only near the optimum)
        assert all(b <= a for a, b in zip(losses[5:60], losses[6:61]))
        assert losses[-1] < 1e-2 * losses[0]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        vocab, params = _small_setup(seed=33)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, vocab)
        loaded_params, loaded_vocab = load_checkpoint(path)
        np.testing.assert_array_equal(loaded_params.embedding, params.embedding)
        np.testing.assert_array_equal(loaded_params.projection, params.projection)
        np.testing.assert_array_equal(loaded_params.bias, params.bias)
        assert loaded_vocab.tokens == vocab.tokens

    def test_object_array_vocab_refused(self, tmp_path):
        # an object array can only be read by unpickling, which loading never does
        vocab, params = _small_setup()
        path = tmp_path / "pickled.npz"
        np.savez(path, embedding=params.embedding, projection=params.projection,
                 bias=params.bias, vocab=np.array(vocab.tokens, dtype=object))
        with pytest.raises(ValueError, match="allow_pickle"):
            load_checkpoint(path)

    def test_embedding_rows_must_match_vocabulary(self, tmp_path):
        # a 2-row table under a 4-token vocabulary once loaded, then failed
        # with an IndexError on the first out-of-range token
        vocab = Vocabulary.from_texts(["alpha beta gamma"])
        params = EncoderParams.init(2, 4, 3)
        save_checkpoint(tmp_path / "ckpt.npz", params, vocab)
        with pytest.raises(ValueError, match="2 rows, vocabulary has 4 tokens"):
            load_checkpoint(tmp_path / "ckpt.npz")

    def test_disagreeing_array_shapes_rejected(self, tmp_path):
        vocab, params = _small_setup()
        path = tmp_path / "ckpt.npz"
        np.savez(path, embedding=params.embedding, projection=np.zeros((3, 6)),
                 bias=np.zeros(3), vocab=np.array(vocab.tokens, dtype=str))
        with pytest.raises(ValueError, match="shapes disagree"):
            load_checkpoint(path)

    def test_path_without_suffix(self, tmp_path):
        vocab, params = _small_setup()
        save_checkpoint(tmp_path / "ckpt", params, vocab)
        loaded_params, _ = load_checkpoint(tmp_path / "ckpt")
        np.testing.assert_array_equal(loaded_params.bias, params.bias)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_flat_round_trip(seed):
    vocab, params = _small_setup(seed=seed)
    rebuilt = params.with_flat(params.flat())
    np.testing.assert_array_equal(rebuilt.embedding, params.embedding)
    np.testing.assert_array_equal(rebuilt.projection, params.projection)
    np.testing.assert_array_equal(rebuilt.bias, params.bias)
