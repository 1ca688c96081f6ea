"""Tensor-core tests: op semantics against hand and brute-force oracles,
tape backward correctness, and finite-difference verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from hypothesis.extra.numpy import arrays

from switchtext import Tape, Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.errors import ConfigError, ContractError, DimensionError, NumericError

rng = np.random.default_rng(20240811)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_selector_row(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (3, 5, 2), (16, 16, 16), (7, 16, 9)])
    def test_against_triple_loop(self, m, k, n):
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        out = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_batched_matches_loop(self):
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        out = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_allclose(out[i], a[i] @ b[i], atol=1e-12)

    def test_backward_rule(self):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.matmul(a, b))
        tape.backward(y)
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(Tensor([1.0, 1.0, 1.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance_large_inputs(self):
        out = T.softmax(Tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_closed_form_ratio(self):
        # exp(0) : exp(ln 2) = 1 : 2
        expected = np.array([1.0, 2.0]) / 3.0
        out = T.softmax(Tensor([0.0, math.log(2.0)]), axis=0)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            T.softmax(Tensor([np.inf, 0.0]), axis=0)
        with pytest.raises(NumericError):
            T.softmax(Tensor([np.nan, 0.0]), axis=0)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 5),
                  elements=st_.floats(-700, 700, allow_nan=False)))
    def test_rows_sum_to_one(self, x):
        out = T.softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        # Extreme spreads underflow to exactly 0.0 in float64; bounds stay [0, 1].
        assert (out.data >= 0).all() and (out.data <= 1 + 1e-15).all()

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor([1.0, 2.0]), axis=3)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(x)
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.mul(x, x))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-15)

    def test_softmax_jacobian_at_uniform(self):
        x = Tensor([0.0, 0.0], requires_grad=True)
        with Tape() as tape:
            p = T.softmax(x, axis=0)
            y = T.sum_(T.mul(p, Tensor([1.0, 0.0])))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [0.25, -0.25], atol=1e-15)

    def test_shared_subexpression_matches_expanded_graph(self):
        base = rng.standard_normal(4)
        x1 = Tensor(base.copy(), requires_grad=True)
        with Tape() as tape:
            s = T.add(x1, x1)
            y = T.sum_(T.mul(s, x1))  # 2*x^2, x feeds three edges
        tape.backward(y)
        x2 = Tensor(base.copy(), requires_grad=True)
        with Tape() as tape:
            y2 = T.sum_(T.mul(T.mul(x2, x2), 2.0))
        tape.backward(y2)
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)
        np.testing.assert_allclose(x1.grad, 4.0 * base, atol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_no_grad_buffer_without_requires_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        with Tape() as tape:
            y = T.sum_(T.mul(x, c))
        tape.backward(y)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        err = finite_difference_check(lambda t: T.sum_(T.mul(t, t)), Tensor([1.0, 2.0]), h=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        err = finite_difference_check(lambda t: Tensor(0.0) if False else T.sum_(T.mul(t, 0.0)),
                                      Tensor([1.0, -2.0, 3.0]), h=1e-5)
        assert err == 0.0

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError):
            finite_difference_check(lambda t: T.sum_(t), Tensor([1.0]), h=0.0)

    @pytest.mark.parametrize("build", [
        lambda t: T.sum_(T.relu(t)),
        lambda t: T.sum_(T.mul(T.layer_norm(T.reshape(t, (2, 3)), Tensor([1.5, -0.5, 2.0]),
                                            Tensor([0.1, 0.2, -0.3]), 1e-5),
                               Tensor([[3.0, -1.0, 2.0], [0.5, -2.0, 1.0]]))),
        lambda t: T.sum_(T.mul(T.softmax(t, axis=0), Tensor([3.0, -1.0, 2.0, 0.5, -2.0, 1.0]))),
        lambda t: T.sum_(T.log_softmax(T.reshape(t, (2, 3)), axis=1)),
        lambda t: T.sum_(T.mul(T.transpose(T.reshape(t, (2, 3))), 1.5)),
    ])
    def test_randomized_ops(self, build):
        x = Tensor(rng.standard_normal(6) + 0.2)
        assert finite_difference_check(build, x, h=1e-6) < 1e-4


class TestGatherScatter:
    def test_take_rows_forward_and_backward(self):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        with Tape() as tape:
            y = T.sum_(T.take_rows(x, idx))
        tape.backward(y)
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    def test_take_rows_out_of_range(self):
        with pytest.raises(ContractError):
            T.take_rows(Tensor(np.ones((3, 2))), np.array([3]))

    def test_scatter_then_gather_roundtrip(self):
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        idx = np.array([4, 1, 0])
        with Tape() as tape:
            s = T.scatter_rows(x, idx, 6)
            y = T.sum_(T.mul(T.take_rows(s, idx), 2.0))
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))

    def test_pick_entries(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.pick(x, np.array([0, 1, 2]), np.array([3, 0, 2])))
        tape.backward(y)
        assert y.item() == 3.0 + 4.0 + 10.0
        expected = np.zeros((3, 4))
        expected[[0, 1, 2], [3, 0, 2]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_fdc_through_gather_scatter_pick(self):
        idx = np.array([1, 3])

        def build(t):
            m = T.reshape(t, (4, 2))
            g = T.take_rows(m, idx)
            s = T.scatter_rows(g, np.array([0, 2]), 4)
            return T.sum_(T.mul(s, s)) + T.sum_(T.pick(m, np.array([0, 0]), np.array([0, 1])))

        assert finite_difference_check(build, Tensor(rng.standard_normal(8)), h=1e-6) < 1e-4


class TestDropout:
    def test_rate_zero_is_identity_object(self):
        x = Tensor([1.0, 2.0])
        gen = np.random.default_rng(0)
        assert T.dropout(x, 0.0, True, gen) is x
        assert T.dropout(x, 0.0, False, gen) is x

    def test_inference_identity(self):
        x = Tensor(rng.standard_normal(100))
        out = T.dropout(x, 0.35, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_bernoulli_statistics(self):
        x = Tensor(np.ones(10_000))
        out = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(3))
        kept = (out.data != 0).mean()
        assert 0.47 <= kept <= 0.53
        assert abs(out.data.mean() - 1.0) < 0.05  # scaling preserves expectation

    def test_backward_uses_stored_mask(self):
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        with Tape() as tape:
            out = T.dropout(x, 0.4, training=True, rng=np.random.default_rng(7))
            y = T.sum_(T.mul(out, 3.0))
        tape.backward(y)
        mask = (out.data != 0).astype(float) / 0.6
        np.testing.assert_allclose(x.grad, 3.0 * mask, atol=1e-12)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            T.dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))


class TestTensorBasics:
    def test_shape_value_invariant(self):
        t = Tensor(np.ones((2, 3)))
        assert t.size == 6 and t.shape == (2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.ones((0, 3)))

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()

    def test_detach_drops_graph(self):
        x = Tensor([1.0], requires_grad=True)
        d = x.detach()
        assert not d.requires_grad and d.data is not x.data
