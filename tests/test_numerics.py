import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gradcheck import finite_difference_gradient, gradient_check
from paraproto import encoder, protonet
from paraproto.data import ClassSplit, Dataset, EpisodeSource
from paraproto.numerics import COSINE, SQUARED_EUCLIDEAN, softmax_over_neg_distances
from paraproto.protonet import _pairwise_distances, softmax_cross_entropy_episode

finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=16
)


def squared_euclidean(a, b):
    """One-pair view of the batched distance."""
    return _pairwise_distances(np.atleast_2d(a), np.atleast_2d(b), SQUARED_EUCLIDEAN)[0][0, 0]


def cosine_distance(a, b):
    return _pairwise_distances(np.atleast_2d(a), np.atleast_2d(b), COSINE)[0][0, 0]


class TestSquaredEuclidean:
    def test_identical_is_zero(self):
        assert squared_euclidean([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_unit_vectors(self):
        assert squared_euclidean([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_matches_per_coordinate_sum(self):
        rng = np.random.default_rng(42)
        queries, protos = rng.normal(size=(3, 8)), rng.normal(size=(4, 8))
        dists = _pairwise_distances(queries, protos, SQUARED_EUCLIDEAN)[0]
        assert dists.shape == (3, 4)
        for j, q in enumerate(queries):
            for c, p in enumerate(protos):
                oracle = sum((x - y) ** 2 for x, y in zip(q, p))
                assert dists[j, c] == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_euclidean([1.0], [1.0, 2.0])

    @given(finite_vectors)
    def test_symmetric(self, values):
        rng = np.random.default_rng(7)
        other = rng.normal(size=len(values))
        assert squared_euclidean(values, other) == pytest.approx(
            squared_euclidean(other, values)
        )
        assert squared_euclidean(values, other) >= 0.0


def difference_form(queries, protos):
    """The (..., Q, C) squared distances from the (..., Q, C, d) difference tensor."""
    return ((queries[..., :, None, :] - protos[..., None, :, :]) ** 2).sum(axis=-1)


class TestMatrixProductForm:
    """The squared-Euclidean distance is |q|^2 + |p|^2 - 2 q.p by one matrix
    product, clamped at 0; it is checked against the difference form."""

    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (1, 25, 5, 32), (12, 25, 5, 32), (3, 4, 2, 5)])
    def test_batched_matches_difference_form(self, shape):
        e, q, c, d = shape
        rng = np.random.default_rng(sum(shape))
        queries, protos = rng.normal(size=(e, q, d)), rng.normal(size=(e, c, d))
        dists = _pairwise_distances(queries, protos, SQUARED_EUCLIDEAN)[0]
        assert dists.shape == (e, q, c)
        np.testing.assert_allclose(dists, difference_form(queries, protos), rtol=1e-12)
        np.testing.assert_allclose(_pairwise_distances(queries[0], protos[0], SQUARED_EUCLIDEAN)[0],
                                   difference_form(queries[0], protos[0]), rtol=1e-12)

    @pytest.mark.parametrize("lead, q, c, d", [((), 1, 1, 3), ((), 5, 3, 4), ((3,), 4, 2, 5), ((2, 2), 3, 3, 2)])
    def test_backward_matches_finite_differences(self, lead, q, c, d):
        rng = np.random.default_rng(q * c * d)
        queries, protos = rng.normal(size=(*lead, q, d)), rng.normal(size=(*lead, c, d))
        d_dist = rng.normal(size=(*lead, q, c))
        split = queries.size

        def loss(theta):
            dists = _pairwise_distances(theta[:split].reshape(queries.shape), theta[split:].reshape(protos.shape),
                                        SQUARED_EUCLIDEAN)[0]
            return float((d_dist * dists).sum())

        d_q, d_p = _pairwise_distances(queries, protos, SQUARED_EUCLIDEAN)[1](d_dist)
        assert d_q.shape == queries.shape and d_p.shape == protos.shape
        theta = np.concatenate([queries.ravel(), protos.ravel()])
        numeric = finite_difference_gradient(loss, theta)
        assert gradient_check(np.concatenate([d_q.ravel(), d_p.ravel()]), numeric).max_relative_error < 1e-6

    @given(finite_vectors, st.integers(min_value=0, max_value=2**32 - 1))
    def test_coincident_rows_never_negative(self, values, seed):
        # |v|^2 + |v|^2 - 2 v.v, each term rounded on its own, can fall
        # below 0; the clamp holds the distance at >= 0
        v = np.array(values)
        rng = np.random.default_rng(seed)
        queries = np.stack([v, rng.uniform(-50, 50, size=len(v)), v])
        protos = np.stack([rng.uniform(-50, 50, size=len(v)), v])
        dists = _pairwise_distances(queries, protos, SQUARED_EUCLIDEAN)[0]
        assert (dists >= 0.0).all()
        assert dists[[0, 2], 1] == pytest.approx([0.0, 0.0], abs=1e-12 * (4.0 * v @ v + 1.0))

    # In the matrix-product form an inf coordinate gives inf - inf = nan
    # where q.p is +inf or nan, and numpy's "invalid value" warning, which
    # this suite turns into an error; the non-finite distance is what counts.
    # (An encoder output is a tanh, so it is never inf itself.)
    def test_inf_embedding_gives_non_finite_distances(self):
        queries = np.array([[np.inf, 1.0], [0.5, -1.0]])
        protos = np.array([[1.0, 2.0], [-1.0, 0.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            dists = _pairwise_distances(queries, protos, SQUARED_EUCLIDEAN)[0]
        assert np.isnan(dists[0, [0, 2]]).all() and dists[0, 1] == np.inf
        np.testing.assert_allclose(dists[1], difference_form(queries[1:], protos)[0], rtol=1e-12)

    def test_inf_embedding_fails_evaluate(self, monkeypatch):
        # two test classes of two rows each: every 2-way 1-shot 1-query
        # episode holds every row, the one with an inf too
        records = [(f"word{i} other{i % 3}", f"c{i // 2}") for i in range(12)]
        dataset = Dataset(records)
        split = ClassSplit(frozenset({"c0", "c1"}), frozenset({"c2", "c3"}), frozenset({"c4", "c5"}))
        vocab = encoder.Vocabulary.from_texts(dataset.texts())
        params = encoder.EncoderParams.init(len(vocab), 4, 4, np.random.default_rng(0))

        def forward_with_inf(params, rows):
            fwd = encoder.forward(params, rows)
            fwd.out[0, 0] = np.inf
            return fwd

        monkeypatch.setattr(protonet, "forward", forward_with_inf)
        tokens = encoder.TokenRows.from_texts(dataset.texts(), vocab)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^non-finite distance between"):
            protonet.evaluate(params, tokens, EpisodeSource(dataset, split, "test", 2, 1, 1), 3,
                              np.random.default_rng(0))


class TestCosineDistance:
    def test_self_distance_zero(self):
        v = np.array([0.3, -1.2, 0.5])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_distance([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            cosine_distance([1.0, 0.0], [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance([1.0], [1.0, 2.0])

    @given(finite_vectors)
    def test_symmetric(self, values):
        assume(np.linalg.norm(values) > 1e-100)  # smaller norms underflow to zero
        other = np.random.default_rng(7).normal(size=len(values))
        assert cosine_distance(values, other) == pytest.approx(
            cosine_distance(other, values), abs=1e-12
        )
        assert -1e-12 <= cosine_distance(values, other) <= 2.0 + 1e-12


class TestSoftmaxOverNegDistances:
    def test_equal_distances_uniform(self):
        out = softmax_over_neg_distances([3.0, 3.0, 3.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-12)

    def test_hand_computed(self):
        # softmax(-[0, ln 2]) = [1, 1/2] / (3/2) = [2/3, 1/3]
        out = softmax_over_neg_distances([0.0, math.log(2.0)])
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], rtol=1e-12)

    def test_extreme_distance_no_overflow(self):
        out = softmax_over_neg_distances([0.0, 1000.0])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(out))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_over_neg_distances([])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12))
    def test_sums_to_one(self, dists):
        out = softmax_over_neg_distances(dists)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12),
        st.floats(min_value=-50, max_value=50),
    )
    def test_shift_invariance(self, dists, shift):
        base = softmax_over_neg_distances(dists)
        shifted = softmax_over_neg_distances([d + shift for d in dists])
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda width: st.lists(
                st.lists(st.floats(min_value=-100, max_value=100), min_size=width, max_size=width),
                min_size=1, max_size=8,
            )
        )
    )
    def test_rows_equal_one_row_calls(self, rows):
        # the episode cross-entropy takes all of its queries in one call
        out = softmax_over_neg_distances(np.array(rows))
        assert out.shape == (len(rows), len(rows[0]))
        for row, probs in zip(rows, out):
            assert np.array_equal(probs, softmax_over_neg_distances(row))


def episode_cross_entropy(dists, target):
    """Loss of softmax_cross_entropy_episode for one query at the given
    squared distances from 1-d prototypes."""
    protos = np.sqrt(np.asarray(dists, dtype=np.float64))[:, None]
    return softmax_cross_entropy_episode(
        np.zeros((1, 1)), protos, np.array([target]), SQUARED_EUCLIDEAN
    )[0]


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert episode_cross_entropy([0.0, 1000.0], 0) == pytest.approx(0.0)

    def test_uniform_binary(self):
        assert episode_cross_entropy([3.0, 3.0], 1) == pytest.approx(math.log(2.0))

    def test_hand_computed_third(self):
        # softmax(-[0, ln 2]) = [2/3, 1/3]
        assert episode_cross_entropy([0.0, math.log(2.0)], 1) == pytest.approx(math.log(3.0))

    def test_zero_probability_clamped(self):
        value = episode_cross_entropy([0.0, 1000.0], 1)
        assert value == pytest.approx(-math.log(1e-12))

    def test_minimized_iff_certain(self):
        assert episode_cross_entropy([0.0, 1000.0], 0) == 0.0
        assert episode_cross_entropy([0.0, 7.0], 0) > 0.0


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda t: float(np.sum(t**2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_difference_gradient(lambda t: 3.5, np.array([1.0, -1.0, 0.2]))
        np.testing.assert_allclose(grad, 0.0)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: 0.0, np.zeros(2), eps=0.0)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: float("nan"), np.zeros(2))


class TestGradientCheck:
    def test_identical_gradients(self):
        g = np.array([0.5, -2.0, 0.0])
        report = gradient_check(g, g)
        assert report.max_relative_error == 0.0
        assert np.all(report.per_parameter_errors >= 0)

    def test_detects_mismatch(self):
        report = gradient_check(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        assert report.max_relative_error > 0.3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gradient_check(np.zeros(2), np.zeros(3))
