"""Layer tests: normalization against the direct mean/variance formula,
Glorot draw statistics, embedding lookup gradients, dropout behavior."""

import numpy as np
import pytest

from helpers import check_many_params
from switchtext import Tape, Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.errors import ConfigError, DimensionError, VocabularyError
from switchtext.layers import (EmbeddingTable, LayerNormParams, LinearParams,
                               dropout, embed, init_weight, layer_norm)

rng = np.random.default_rng(77)


def norm_oracle(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)  # population variance
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


class TestLayerNorm:
    def test_three_point_example(self):
        # mean 2, population variance 2/3; the primitive with no epsilon
        p = LayerNormParams(gamma=Tensor(np.ones(3)), beta=Tensor(np.zeros(3)))
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0]), p.gamma, p.beta, 0.0)
        expected = norm_oracle(np.array([1.0, 2.0, 3.0]), 1.0, 0.0, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_input_returns_beta(self):
        beta = np.array([0.3, -0.7])
        p = LayerNormParams(gamma=Tensor(np.ones(2)), beta=Tensor(beta))
        for c in (0.0, 5.0, -3.25):
            out = layer_norm(Tensor([c, c]), p)
            np.testing.assert_allclose(out.data, beta, atol=1e-12)

    def test_zero_gamma_annihilates(self):
        p = LayerNormParams(gamma=Tensor(np.zeros(4)), beta=Tensor(np.full(4, 2.5)))
        out = layer_norm(Tensor(rng.standard_normal((3, 4))), p)
        np.testing.assert_array_equal(out.data, np.full((3, 4), 2.5))

    def test_normalized_statistics(self):
        p = LayerNormParams.create(16)
        x = rng.standard_normal((5, 16)) * 3 + 1
        out = layer_norm(Tensor(x), p).data
        assert np.abs(out.mean(axis=-1)).max() <= 1e-10
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_dimension_mismatch(self):
        p = LayerNormParams.create(4)
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.ones((2, 5))), p)

    def test_gradients(self):
        p = LayerNormParams.create(4)
        probe_coeffs = Tensor(np.random.default_rng(5).standard_normal((3, 4)))

        def against_x(t):
            return T.sum_(T.mul(layer_norm(t, p), probe_coeffs))

        x = Tensor(rng.standard_normal((3, 4)))
        assert finite_difference_check(against_x, x, h=1e-6) < 1e-4

        x_fixed = Tensor(rng.standard_normal((3, 4)))
        coeffs = Tensor(rng.standard_normal((3, 4)))

        def against_gamma(g):
            q = LayerNormParams(gamma=g, beta=p.beta)
            return T.sum_(T.mul(layer_norm(x_fixed, q), coeffs))

        assert finite_difference_check(against_gamma, Tensor(np.ones(4)), h=1e-6) < 1e-4

        # [B, L, d] input with a non-trivial gamma: x, gamma and beta.
        gen = np.random.default_rng(6)
        q = LayerNormParams(gamma=Tensor(gen.standard_normal(4)),
                            beta=Tensor(gen.standard_normal(4)))
        x3 = Tensor(gen.standard_normal((2, 3, 4)) * 2 + 0.5)
        coeffs3 = Tensor(gen.standard_normal((2, 3, 4)))
        assert finite_difference_check(
            lambda t: T.sum_(T.mul(layer_norm(t, q), coeffs3)), x3, h=1e-6) < 1e-4
        check_many_params(lambda: T.sum_(T.mul(layer_norm(x3, q), coeffs3)),
                          [(q, "gamma"), (q, "beta")])

    def test_one_tape_node_per_call(self):
        p = LayerNormParams.create(4)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            layer_norm(x, p)
        assert len(tape._nodes) == 1


class TestGlorot:
    """``init_weight`` draws from the Glorot-normal law N(0, 2/(fan_in+fan_out))."""

    def test_variance_within_ten_percent(self):
        draws = init_weight((200, 200), np.random.default_rng(9)).data  # 40_000 samples
        target = 2.0 / 400
        assert abs(draws.var() - target) <= 0.1 * target

    def test_same_seed_bit_identical(self):
        a = init_weight((7, 5), np.random.default_rng(123)).data
        b = init_weight((7, 5), np.random.default_rng(123)).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            a, np.random.default_rng(123).normal(0.0, np.sqrt(2.0 / 12), size=(7, 5)))

    def test_degenerate_fans_target_variance_one(self):
        gen = np.random.default_rng(0)
        draws = np.array([init_weight((1, 1), gen).data[0, 0] for _ in range(4000)])
        assert abs(draws.var() - 1.0) <= 0.1

    def test_invalid_fans(self):
        for rng_ in (np.random.default_rng(0), None):
            with pytest.raises(ConfigError):
                init_weight((0, 3), rng_)


class TestEmbedding:
    def make_table(self, vocab=8, dim=4, max_len=6, seed=1):
        return EmbeddingTable.create(vocab, dim, max_len, np.random.default_rng(seed))

    def test_all_pad_rows(self):
        table = self.make_table()
        ids = np.zeros((1, 4), dtype=int)
        out = embed(ids, np.array([4]), table).data
        expected = table.table.data[0] + table.positional.data[:4]
        np.testing.assert_array_equal(out, expected)

    def test_zero_positional_is_token_row(self):
        table = self.make_table()
        table.positional.data = np.zeros_like(table.positional.data)
        out = embed(np.array([[3]]), np.array([1]), table).data
        np.testing.assert_array_equal(out, table.table.data[[3]])

    def test_gradient_touches_only_looked_up_rows(self):
        table = self.make_table()
        ids, lengths = np.array([[2, 5, 2]]), np.array([3])
        with Tape() as tape:
            y = T.sum_(T.mul(embed(ids, lengths, table),
                             Tensor(embed(ids, lengths, table).data.copy())))
        tape.backward(y)
        touched = np.nonzero(np.abs(table.table.grad).sum(axis=1))[0]
        assert set(touched) == {2, 5}
        # Central difference on an untouched row is zero.
        base = table.table.data.copy()

        def loss_at(row_value):
            table.table.data = base.copy()
            table.table.data[6] = row_value
            out = embed(ids, lengths, table).data
            table.table.data = base
            return (out * out).sum()

        h = 1e-5
        bump = base[6].copy()
        bump[0] += h
        hi = loss_at(bump)
        bump[0] -= 2 * h
        lo = loss_at(bump)
        assert abs(hi - lo) / (2 * h) == 0.0

    def test_out_of_range_id(self):
        table = self.make_table(vocab=4)
        with pytest.raises(VocabularyError):
            embed(np.array([[4]]), np.array([1]), table)

    def test_too_long_sequence(self):
        table = self.make_table(max_len=3)
        with pytest.raises(DimensionError):
            embed(np.zeros((1, 5), dtype=int), np.array([5]), table)

    def test_batched_lookup_shape(self):
        table = self.make_table()
        out = embed(np.zeros((2, 5), dtype=int), np.array([3, 5]), table)
        assert out.shape == (8, 4)  # one row per real token

    def test_padding_is_never_looked_up(self):
        table = self.make_table(vocab=4)
        ids = np.array([[2, 3, 9], [1, 7, -5]])  # out of range only under padding
        expected = table.table.data[[2, 3, 1]] + table.positional.data[[0, 1, 0]]
        np.testing.assert_array_equal(embed(ids, np.array([2, 1]), table).data, expected)
        with pytest.raises(VocabularyError):
            embed(ids, np.array([3, 3]), table)


class TestDropoutLayer:
    def test_reexported_semantics(self):
        x = Tensor(np.ones(1000))
        out = dropout(x, 0.35, training=True, rng=np.random.default_rng(1))
        dropped = (out.data == 0).mean()
        assert 0.25 < dropped < 0.45
        kept_value = out.data[out.data != 0][0]
        np.testing.assert_allclose(kept_value, 1 / 0.65, atol=1e-12)


class TestPacking:
    """``embed`` packs the real tokens of a padded batch into rows."""

    table = EmbeddingTable.create(9, 2, 3, np.random.default_rng(4))

    def grid(self, ids):  # the padded [batch, len, d] embedding grid
        return self.table.table.data[ids] + self.table.positional.data[:ids.shape[1]]

    def test_without_padding_the_grid_is_the_packed_rows(self):
        ids = np.array([[5, 8], [3, 1]])
        packed = embed(ids, np.array([2, 2]), self.table)
        assert packed.data.tobytes() == self.grid(ids).tobytes()


class TestLinearParams:
    def test_create_shapes_and_zero_bias(self):
        p = LinearParams.create(4, 3, np.random.default_rng(0))
        assert p.weight.shape == (4, 3) and p.bias.shape == (3,)
        np.testing.assert_array_equal(p.bias.data, np.zeros(3))
