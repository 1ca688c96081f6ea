"""Attention tests: closed-form weight oracles, masking semantics,
single-head reduction, permutation equivariance, and gradient checks."""

import math

import numpy as np
import pytest

from switchtext import Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.attention import (FfnParams, MultiHeadParams,
                                  multi_head_attention, position_wise_ffn,
                                  scaled_dot_product_attention)
from switchtext.errors import ConfigError, ContractError, DimensionError
from switchtext.layers import LinearParams

rng = np.random.default_rng(4242)


def attention_weights_oracle(q, k, mask=None):
    scores = q @ k.T / math.sqrt(q.shape[-1])
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -1e30)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=-1, keepdims=True)


class TestScaledDotProductAttention:
    def test_single_key_returns_value(self):
        q = Tensor(rng.standard_normal((1, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 3)))
        out = scaled_dot_product_attention(q, k, v, np.array([True]))
        np.testing.assert_array_equal(out.data, v.data)

    def test_two_key_closed_form(self):
        # scores are (1/sqrt(2), 0); weights e^{1/sqrt(2)} : e^0 normalized
        q = Tensor([[1.0, 0.0]])
        k = Tensor([[1.0, 0.0], [0.0, 1.0]])
        v = Tensor(np.eye(2))
        w1 = math.exp(1 / math.sqrt(2)) / (math.exp(1 / math.sqrt(2)) + 1.0)
        out = scaled_dot_product_attention(q, k, v, np.array([True, True]))
        np.testing.assert_allclose(out.data, [[w1, 1 - w1]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[0.6698, 0.3302]], atol=1e-4)

    def test_zero_query_gives_mean_of_unmasked_values(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        v = Tensor(rng.standard_normal((5, 3)))
        mask = np.array([True, True, False, True, False])
        out = scaled_dot_product_attention(q, k, v, mask)
        expected = v.data[mask].mean(axis=0)
        np.testing.assert_allclose(out.data, np.stack([expected, expected]), atol=1e-12)

    def test_all_masked_raises(self):
        q = Tensor(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            scaled_dot_product_attention(q, q, q, np.array([False, False]))

    def test_masked_keys_get_zero_weight(self):
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((4, 6))
        mask = np.array([True, False, True, False])
        weights = attention_weights_oracle(q, k, mask)
        assert weights[:, ~mask].max() < 1e-12
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-10)
        # Masked values never leak: huge garbage in masked rows changes nothing.
        v = rng.standard_normal((4, 3))
        v_garbage = v.copy()
        v_garbage[~mask] = 1e12
        out_clean = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        out_dirty = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v_garbage), mask)
        np.testing.assert_array_equal(out_clean.data, out_dirty.data)

    def test_matches_truncated_unmasked_attention(self):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        mask = np.array([True, True, True, False, False])
        full = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        short = scaled_dot_product_attention(Tensor(q[:3]), Tensor(k[:3]), Tensor(v[:3]),
                                             np.array([True] * 3))
        np.testing.assert_allclose(full.data[:3], short.data, atol=1e-12)


class TestMultiHeadAttention:
    def test_single_head_reduces_to_sdpa(self):
        d = 4
        identity = lambda: Tensor(np.eye(d), requires_grad=True)
        wo = LinearParams(weight=Tensor(np.eye(d), requires_grad=True),
                          bias=Tensor(np.zeros(d), requires_grad=True))
        p = MultiHeadParams(wq=identity(), wk=identity(), wv=identity(), wo=wo, num_heads=1)
        x = Tensor(rng.standard_normal((3, d)))
        mask = np.array([True, True, True])
        out = multi_head_attention(x, p, mask[None, :])
        direct = scaled_dot_product_attention(x, x, x, mask)
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)

    def test_output_shape_contract(self):
        p = MultiHeadParams.create(8, 4, np.random.default_rng(0))
        x = Tensor(rng.standard_normal((5, 8)))
        assert multi_head_attention(x, p, np.ones((1, 5), bool)).shape == (5, 8)
        # Packed rows: the 7 real tokens of a padded [2, 5] batch.
        mask = np.array([[True, True, True, False, False], [True] * 4 + [False]])
        xb = Tensor(rng.standard_normal((7, 8)))
        assert multi_head_attention(xb, p, mask).shape == (7, 8)
        for bad_mask in (mask, np.ones(5, bool)):
            with pytest.raises(DimensionError):
                multi_head_attention(x, p, bad_mask)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            MultiHeadParams.create(10, 4, np.random.default_rng(0))

    def test_packed_batch_matches_each_sequence_alone(self):
        p = MultiHeadParams.create(8, 2, np.random.default_rng(5))
        lengths = (3, 5, 1)
        seqs = [rng.standard_normal((n, 8)) for n in lengths]
        mask = np.arange(max(lengths))[None, :] < np.array(lengths)[:, None]
        packed = multi_head_attention(Tensor(np.concatenate(seqs)), p, mask).data
        alone = [multi_head_attention(Tensor(x), p, np.ones((1, len(x)), bool)).data for x in seqs]
        np.testing.assert_allclose(packed, np.concatenate(alone), atol=1e-12)

    def test_permutation_equivariance(self):
        p = MultiHeadParams.create(8, 2, np.random.default_rng(3))
        x = rng.standard_normal((6, 8))
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = multi_head_attention(Tensor(x), p, np.ones((1, 6), bool)).data
        out_permuted = multi_head_attention(Tensor(x[perm]), p, np.ones((1, 6), bool)).data
        np.testing.assert_allclose(out_permuted, out[perm], atol=1e-12)

    def test_gradients_all_parameters(self):
        from helpers import check_many_params

        p = MultiHeadParams.create(8, 2, np.random.default_rng(1))
        x = rng.standard_normal((4, 8))
        mask = np.array([[True, True, True], [True, False, False]])
        coeffs = Tensor(rng.standard_normal((4, 8)))

        def make_loss():
            return T.sum_(T.mul(multi_head_attention(Tensor(x), p, mask), coeffs))

        check_many_params(make_loss, [
            (p, "wq"), (p, "wk"), (p, "wv"),
            (p.wo, "weight"), (p.wo, "bias"),
        ])

        def against_x(t):
            return T.sum_(T.mul(multi_head_attention(t, p, mask), coeffs))

        assert finite_difference_check(against_x, Tensor(x), h=1e-6) < 1e-4


class TestPositionWiseFfn:
    def test_zero_weights_constant_bias(self):
        p = FfnParams(
            lin1=LinearParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))),
            lin2=LinearParams(Tensor(np.zeros((4, 3))), Tensor(np.array([1.0, 2.0, 3.0]))),
        )
        out = position_wise_ffn(Tensor(rng.standard_normal((5, 3))), p)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_dead_relu_path(self):
        d = 3
        p = FfnParams(
            lin1=LinearParams(Tensor(np.eye(d)), Tensor(np.zeros(d))),
            lin2=LinearParams(Tensor(np.eye(d)), Tensor(np.array([0.5, -0.5, 0.25]))),
        )
        out = position_wise_ffn(Tensor([[-1.0, -2.0, -3.0]]), p)
        np.testing.assert_array_equal(out.data, [[0.5, -0.5, 0.25]])

    def test_identical_rows_identical_outputs(self):
        p = FfnParams.create(4, 8, np.random.default_rng(2))
        row = rng.standard_normal(4)
        out = position_wise_ffn(Tensor(np.stack([row, row])), p)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_commutes_with_row_permutation(self):
        p = FfnParams.create(4, 8, np.random.default_rng(2))
        x = rng.standard_normal((6, 4))
        perm = np.array([5, 2, 0, 1, 4, 3])
        out = position_wise_ffn(Tensor(x), p).data
        out_perm = position_wise_ffn(Tensor(x[perm]), p).data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_gradients(self):
        p = FfnParams.create(3, 6, np.random.default_rng(4))
        coeffs = Tensor(rng.standard_normal((2, 3)))

        def against_x(t):
            return T.sum_(T.mul(position_wise_ffn(t, p), coeffs))

        assert finite_difference_check(against_x, Tensor(rng.standard_normal((2, 3))), h=1e-6) < 1e-4
