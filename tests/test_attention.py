"""Attention tests: closed-form weight oracles, sequence lengths,
single-head reduction, permutation equivariance, and gradient checks."""

import math

import numpy as np
import pytest

from switchtext import Tape, Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.attention import (FfnParams, MultiHeadParams,
                                  multi_head_attention, position_wise_ffn)
from switchtext.errors import ConfigError, ContractError
from switchtext.layers import LinearParams
from switchtext.model import EncoderModel, ModelConfig

rng = np.random.default_rng(4242)


def attention_weights_oracle(q, k, mask=None):
    scores = q @ k.T / math.sqrt(q.shape[-1])
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -1e30)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=-1, keepdims=True)


def one_head(q, k, v, lengths):
    """``T.attention`` with one head on packed q, k and v rows, sequence i
    the next ``lengths[i]`` rows."""
    return T.attention(Tensor(np.concatenate([q, k, v], axis=1)), np.array(lengths), 1)


class TestScaledDotProductAttention:
    def test_single_key_returns_value(self):
        q, k = rng.standard_normal((2, 1, 4))
        v = rng.standard_normal((1, 4))
        np.testing.assert_array_equal(one_head(q, k, v, [1]).data, v)

    def test_two_key_closed_form(self):
        # query 0's scores are (1/sqrt(2), 0); weights e^{1/sqrt(2)} : e^0 normalized
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.eye(2)
        v = np.eye(2)
        w1 = math.exp(1 / math.sqrt(2)) / (math.exp(1 / math.sqrt(2)) + 1.0)
        out = one_head(q, k, v, [2]).data
        np.testing.assert_allclose(out[0], [w1, 1 - w1], atol=1e-12)
        np.testing.assert_allclose(out[0], [0.6698, 0.3302], atol=1e-4)
        np.testing.assert_array_equal(out[1], [0.5, 0.5])

    def test_zero_query_gives_mean_of_unmasked_values(self):
        k = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        out = one_head(np.zeros((3, 4)), k, v, [3])
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_all_masked_raises(self):
        q = np.zeros((2, 2))
        with pytest.raises(ContractError):
            one_head(q, q, q, [2, 0])

    def test_masked_keys_get_zero_weight(self):
        # With v = I the output rows are each query's weights over the
        # packed keys: the oracle's over its own sequence, exactly 0 on the
        # other sequence's keys.
        q = rng.standard_normal((6, 6))
        k = rng.standard_normal((6, 6))
        weights = one_head(q, k, np.eye(6), [2, 4]).data
        np.testing.assert_allclose(weights[:2, :2], attention_weights_oracle(q[:2], k[:2]),
                                   atol=1e-12)
        np.testing.assert_allclose(weights[2:, 2:], attention_weights_oracle(q[2:], k[2:]),
                                   atol=1e-12)
        assert not weights[:2, 2:].any() and not weights[2:, :2].any()
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-10)

    def test_matches_truncated_unmasked_attention(self):
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        one = one_head(q, k, v, [3])
        # the same rows as the first of two sequences
        two = one_head(np.concatenate([q, q[:1]]), np.concatenate([k, k[:1]]),
                       np.concatenate([v, v[:1]]), [3, 1])
        np.testing.assert_allclose(two.data[:3], one.data, atol=1e-12)


class TestMultiHeadAttention:
    def test_single_head_reduces_to_sdpa(self):
        d = 4
        wo = LinearParams(weight=Tensor(np.eye(d), requires_grad=True),
                          bias=Tensor(np.zeros(d), requires_grad=True))
        p = MultiHeadParams(wqkv=Tensor(np.tile(np.eye(d), 3), requires_grad=True), wo=wo)
        x = Tensor(rng.standard_normal((3, d)))
        out = multi_head_attention(x, p, np.array([3]), 1)
        direct = attention_weights_oracle(x.data, x.data) @ x.data
        np.testing.assert_allclose(out.data, direct, atol=1e-12)

    def test_output_shape_contract(self):
        p = MultiHeadParams.create(8, 4, np.random.default_rng(0))
        x = Tensor(rng.standard_normal((5, 8)))
        assert multi_head_attention(x, p, np.array([5]), 4).shape == (5, 8)
        # Packed rows: 7 real tokens of sequences of lengths 3 and 4.
        lengths = np.array([3, 4])
        xb = Tensor(rng.standard_normal((7, 8)))
        assert multi_head_attention(xb, p, lengths, 4).shape == (7, 8)
        with pytest.raises(ContractError, match="one per real token"):
            multi_head_attention(x, p, lengths, 4)
        with pytest.raises(ContractError, match="must be ints"):
            multi_head_attention(x, p, np.ones((1, 5), bool), 4)  # a mask, not lengths

    def test_padded_batch_is_three_tape_nodes(self):
        # The query-key-value projection, one attention node and one for the
        # output map.
        p = MultiHeadParams.create(8, 2, np.random.default_rng(0))
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        with Tape() as tape:
            multi_head_attention(x, p, np.array([3, 1]), 2)
        assert len(tape._nodes) == 3

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="multiple of num_heads"):
            EncoderModel.build(ModelConfig(d_model=10, num_heads=4, d_ff=20))

    def test_packed_batch_matches_each_sequence_alone(self):
        p = MultiHeadParams.create(8, 2, np.random.default_rng(5))
        lengths = np.array([3, 5, 1])
        seqs = [rng.standard_normal((n, 8)) for n in lengths]
        packed = multi_head_attention(Tensor(np.concatenate(seqs)), p, lengths, 2).data
        alone = [multi_head_attention(Tensor(x), p, np.array([len(x)]), 2).data for x in seqs]
        np.testing.assert_allclose(packed, np.concatenate(alone), atol=1e-12)

    def test_permutation_equivariance(self):
        p = MultiHeadParams.create(8, 2, np.random.default_rng(3))
        x = rng.standard_normal((6, 8))
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = multi_head_attention(Tensor(x), p, np.array([6]), 2).data
        out_permuted = multi_head_attention(Tensor(x[perm]), p, np.array([6]), 2).data
        np.testing.assert_allclose(out_permuted, out[perm], atol=1e-12)

    def test_gradients_all_parameters(self):
        from helpers import check_many_params

        p = MultiHeadParams.create(8, 2, np.random.default_rng(1))
        x = rng.standard_normal((4, 8))
        lengths = np.array([3, 1])
        coeffs = Tensor(rng.standard_normal((4, 8)))

        def make_loss():
            return T.sum_(T.mul(multi_head_attention(Tensor(x), p, lengths, 2), coeffs))

        check_many_params(make_loss, [
            (p, "wqkv"), (p.wo, "weight"), (p.wo, "bias"),
        ])

        def against_x(t):
            return T.sum_(T.mul(multi_head_attention(t, p, lengths, 2), coeffs))

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
