"""Tensor-core tests: op semantics against hand and brute-force oracles,
tape backward correctness, and finite-difference verification."""

import ast
import math
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from hypothesis.extra.numpy import arrays

import switchtext
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
        # Inner extents that differ, a batched 3-D operand and a 1-D vector:
        # matmul takes [m, k] @ [k, n] only.
        for a_shape, b_shape, shapes in [((2, 3), (2, 2), r"\(2, 3\).*\(2, 2\)"),
                                         ((4, 3, 5), (5, 2), r"\(4, 3, 5\).*\(5, 2\)"),
                                         ((3, 5), (5,), r"\(3, 5\).*\(5,\)")]:
            with pytest.raises(DimensionError, match=shapes):
                T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_batched_matches_loop(self):
        # A batch is a loop of 2-D products; the stacked operands are refused.
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        with pytest.raises(DimensionError, match=r"\(4, 3, 5\).*\(4, 5, 2\)"):
            T.matmul(Tensor(a), Tensor(b))
        for i in range(4):
            out = T.matmul(Tensor(a[i]), Tensor(b[i])).data
            np.testing.assert_allclose(out, naive_matmul(a[i], b[i]), atol=1e-12)

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

    def test_second_backward_on_a_swept_tape_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.mul(x, x))
        tape.backward(y)
        with pytest.raises(ContractError, match="already swept"):
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_array_saved_by_a_vjp_is_freed_by_the_sweep(self):
        x = Tensor(rng.standard_normal(3), requires_grad=True)

        def build():
            c = rng.standard_normal(3)  # held only by mul's vjps once build returns
            return T.sum_(T.mul(x, Tensor(c))), weakref.ref(c)

        with Tape() as tape:
            y, saved = build()
        assert saved() is not None
        tape.backward(y)
        assert saved() is None and len(tape._nodes) == 2

    def test_add_keeps_no_reference_to_its_operands(self):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            x = T.matmul(Tensor(rng.standard_normal((2, 4))), w)
            y = T.sum_(T.add(x, b))
            held = weakref.ref(x.data)
            del x  # add's vjps need only the operand shapes
            assert held() is None
        tape.backward(y)
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_two_backwards_add_like_the_out_of_place_sum(self):
        batches = [rng.standard_normal((5, 4)) for _ in range(2)]
        w0 = rng.standard_normal((4, 3))

        def grad_of(w, x):
            with Tape() as tape:
                y = T.sum_(T.mul(T.layer_norm(T.matmul(Tensor(x), w), Tensor(np.ones(3)),
                                              Tensor(np.zeros(3)), 1e-5), 0.7))
            tape.backward(y)
            return w.grad

        alone = [grad_of(Tensor(w0, requires_grad=True), x) for x in batches]
        w = Tensor(w0, requires_grad=True)
        first = grad_of(w, batches[0])
        both = grad_of(w, batches[1])
        assert both is first  # the second sweep added in place
        assert both.tobytes() == (alone[0] + alone[1]).tobytes()

    def test_leaf_grads_own_their_buffers(self):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with Tape() as tape:
            # add(x, x) hands x the upstream gradient itself twice, add(.., w)
            # hands w that same gradient, and sum_ hands v a read-only view
            # of the seed, which the gradient of s also views.
            s = T.add(T.add(x, x), w)
            y = T.add(T.sum_(s), T.sum_(v))
        tape.backward(y)
        grads = [x.grad, w.grad, v.grad]
        for g in grads:
            assert g.base is None and g.flags.writeable
        assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(v.grad, np.ones((2, 3)))

    def test_wrt_differentiates_only_the_named_leaves(self):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as full:
            y_full = T.sum_(T.mul(T.matmul(x, T.mul(w, 2.0)), b))
        full.backward(y_full)
        expected = x.grad
        x.grad = w.grad = b.grad = None
        with Tape(wrt=[x]) as tape:
            y = T.sum_(T.mul(T.matmul(x, T.mul(w, 2.0)), b))
        assert len(tape._nodes) == 3  # mul(w, 2.0) involves no named leaf
        tape.backward(y)
        assert w.grad is None and b.grad is None
        assert x.grad.tobytes() == expected.tobytes()

    def test_no_grad_buffer_without_requires_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        with Tape() as tape:
            y = T.sum_(T.mul(x, c))
        tape.backward(y)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_an_output_of_one_tape_is_no_leaf_of_the_next(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = T.mul(x, 2.0)
        with Tape() as later:
            z = T.sum_(T.mul(y, 3.0))
        assert not y.requires_grad and later._nodes == [] and z.node_id is None
        with pytest.raises(ContractError, match="not recorded"):
            later.backward(z)
        assert y.grad is None and x.grad is None


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
        lambda t: T.sum_(T.ffn(t, Tensor(np.eye(3, 4) - 0.1), Tensor([0.3, -0.2, 0.1, 0.5]),
                               Tensor(np.ones((4, 3))), Tensor([0.0, 1.0, -1.0]))),
        lambda t: T.sum_(T.mul(T.layer_norm(t, Tensor([1.5, -0.5, 2.0]),
                                            Tensor([0.1, 0.2, -0.3]), 1e-5),
                               Tensor([[3.0, -1.0, 2.0], [0.5, -2.0, 1.0]]))),
        lambda t: T.sum_(T.mul(T.softmax(t, axis=0), Tensor([[3.0, -1.0, 2.0], [0.5, -2.0, 1.0]]))),
        lambda t: T.sum_(T.log_softmax(t, axis=1)),
        lambda t: T.sum_(T.mul(T.add(t, Tensor([0.5, -1.0, 2.0])), T.add(t, t))),
        lambda t: T.sum_(T.mul(T.matmul(t, Tensor([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])),
                               Tensor([[2.0, -1.0], [0.5, 1.5]]))),
        lambda t: T.sum_(T.mul(T.mean(t, axis=0), Tensor([3.0, -1.0, 2.0]))),
        lambda t: T.mul(T.mean(T.mul(t, t)), 2.0),
        # A fresh generator per call draws the same mask at every probe.
        lambda t: T.sum_(T.mul(T.dropout(t, 0.4, True, np.random.default_rng(3)),
                               Tensor([[3.0, -1.0, 2.0], [0.5, -2.0, 1.0]]))),
    ])
    def test_randomized_ops(self, build):
        x = Tensor(rng.standard_normal((2, 3)) + 0.2)
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

    @pytest.mark.parametrize("many", [False, True])
    def test_repeated_positions_accumulate_through_flat_np_add_at(self, many, monkeypatch):
        # Gradients of mixed magnitude, so another summation order would
        # show in the bits; the columns of a padded batch repeat once per note.
        # Distinct positions, here a 2-d index array, take the same rule.
        gen = np.random.default_rng(15)
        repeated = ((gen.integers(0, 4, 300), gen.integers(0, 3, 300)) if many
                    else np.nonzero(gen.random((16, 40)) < 0.7)[1])
        distinct = ((np.array([3, 0, 1]), np.array([2, 0, 1])) if many
                    else np.array([[2, 0], [1, 4]]))
        x = Tensor(gen.standard_normal((4, 3) if many else (40, 3)), requires_grad=True)
        passes = []
        for idx in (repeated, distinct):
            shape = x.data[idx].shape
            coeffs = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 8, shape)
            with Tape() as tape:
                y = T.sum_(T.mul(T.take_rows(x, idx), coeffs))
            expected = np.zeros(x.shape)
            np.add.at(expected, idx, coeffs)  # row by row, the reference order
            passes.append((tape, y, expected))
        add_at = np.add.at

        def flat_add_at(target, *args):
            assert target.ndim == 1, "np.add.at row by row"
            add_at(target, *args)

        numpy_flat_add_at = types.SimpleNamespace(**{
            name: getattr(np, name) for name in dir(np) if not name.startswith("__")})
        numpy_flat_add_at.add = types.SimpleNamespace(at=flat_add_at)
        monkeypatch.setattr(T, "np", numpy_flat_add_at)
        for tape, y, expected in passes:
            x.grad = None
            tape.backward(y)
            assert x.grad.tobytes() == expected.tobytes()

    def test_take_rows_out_of_range(self):
        with pytest.raises(ContractError):
            T.take_rows(Tensor(np.ones((3, 2))), np.array([3]))

    def test_pick_entries(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.take_rows(x, (np.array([0, 1, 2]), np.array([3, 0, 2]))))
        tape.backward(y)
        assert y.item() == 3.0 + 4.0 + 10.0
        expected = np.zeros((3, 4))
        expected[[0, 1, 2], [3, 0, 2]] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_pick_repeated_entries_accumulate(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            y = T.sum_(T.take_rows(x, (np.array([0, 2, 0, 1]), np.array([3, 0, 3, 3]))))
        tape.backward(y)
        expected = np.zeros((3, 4))
        expected[0, 3], expected[2, 0], expected[1, 3] = 2.0, 1.0, 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_fdc_through_gather_scatter_pick(self):
        idx = np.array([1, 3])

        def build(m):
            s = T.take_rows(T.take_rows(m, idx), np.array([1, 0, 1]))
            sums = T.segment_sum(T.take_rows(m, np.array([3, 0, 2])), np.array([1, 2]))
            return T.add(T.add(T.sum_(T.mul(s, s)), T.sum_(T.mul(sums, sums))),
                         T.sum_(T.take_rows(m, (np.array([0, 0]), np.array([0, 1])))))

        assert finite_difference_check(build, Tensor(rng.standard_normal((4, 2))), h=1e-6) < 1e-4

    def test_take_rows_checks_each_index_array_against_its_axis(self):
        x = Tensor(np.ones((3, 2)))
        for index in [(np.array([0, 3]), np.array([0, 1])),  # row 3 of 3
                      (np.array([0, 1]), np.array([1, -1])),  # column -1
                      (np.array([2]), np.array([2])),  # column 2 of 2
                      (np.array([0]),) * 3]:  # three axes of two
            with pytest.raises(ContractError, match="index out of range"):
                T.take_rows(x, index)
        assert T.take_rows(x, (np.array([2]), np.array([1]))).shape == (1,)


class TestLinear:
    def operands(self):
        return rng.standard_normal((5, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)

    def test_product_plus_bias_in_one_node(self):
        x, w, b = self.operands()
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.linear(xt, Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, x @ w + b)
        assert len(tape._nodes) == 1

    def test_finite_difference(self):
        operands = dict(zip("xwb", self.operands()))
        coeffs = Tensor(rng.standard_normal((5, 3)))
        for name in operands:
            def f(t, name=name):
                args = {k: Tensor(v) for k, v in operands.items()}
                args[name] = t
                return T.sum_(T.mul(T.linear(args["x"], args["w"], args["b"]), coeffs))
            assert finite_difference_check(f, Tensor(operands[name]), h=1e-6) < 1e-4, name

    def test_shapes_checked(self):
        x, w, b = self.operands()
        for args in ((x, w.T, b), (x, w, b[:2]), (x[None], w, b), (x, w[None], b)):
            with pytest.raises(DimensionError):
                T.linear(*(Tensor(a) for a in args))


class TestFfn:
    """``T.ffn`` for dense rows, and ``T.routed_ffn`` with one stacked map per
    group of rows, every row served at gate probability 1."""

    layouts = {"dense": None, "empty_group": np.array([2, 0, 3]),  # the middle group is empty
               "one_group": np.array([0, 5, 0])}  # every row on one expert

    def operands(self, sizes, seed=5):
        # A fixed draw whose hidden pre-activations all lie well away from the
        # ReLU kink, so central differences see a smooth function.
        gen = np.random.default_rng(seed)
        lead = () if sizes is None else (len(sizes),)
        return {"x": gen.standard_normal((5, 4)), "w1": gen.standard_normal(lead + (4, 6)),
                "b1": gen.standard_normal(lead + (6,)), "w2": gen.standard_normal(lead + (6, 4)),
                "b2": gen.standard_normal(lead + (4,))}

    @staticmethod
    def route(sizes, capacity=None):
        """One-hot gate probabilities that send ``sizes`` consecutive rows to
        each group, and a capacity that serves them all unless given."""
        chosen = np.repeat(np.arange(len(sizes)), sizes)
        probs = np.zeros((len(chosen), len(sizes)))
        probs[np.arange(len(chosen)), chosen] = 1.0
        return probs, len(chosen) if capacity is None else capacity

    @classmethod
    def apply(cls, args, sizes, route=None):
        """The node for ``sizes`` consecutive rows per group; ``route`` =
        (probs, capacity) replaces the one that ``sizes`` implies."""
        maps = [args[k] for k in ("w1", "b1", "w2", "b2")]
        if sizes is None:
            return T.ffn(args["x"], *maps)
        return T.routed_ffn(args["x"], *maps, *(route or cls.route(sizes)))

    @pytest.mark.parametrize("layout", sorted(layouts))
    def test_each_group_maps_through_its_slice(self, layout):
        sizes = self.layouts[layout]
        ops = self.operands(sizes)
        out = self.apply({k: Tensor(v) for k, v in ops.items()}, sizes).data
        start = 0
        for j, n in enumerate([5] if sizes is None else sizes):
            w1, b1, w2, b2 = (ops[k] if sizes is None else ops[k][j]
                              for k in ("w1", "b1", "w2", "b2"))
            hidden = np.maximum(ops["x"][start:start + n] @ w1 + b1, 0.0)
            np.testing.assert_array_equal(out[start:start + n], hidden @ w2 + b2)
            start += n

    @pytest.mark.parametrize("layout", sorted(layouts))
    def test_finite_difference(self, layout):
        sizes = self.layouts[layout]
        ops = self.operands(sizes)
        coeffs = Tensor(rng.standard_normal((5, 4)))
        for name in ops:
            def f(t, name=name):
                args = {k: Tensor(v) for k, v in ops.items()}
                args[name] = t
                return T.sum_(T.mul(self.apply(args, sizes), coeffs))
            assert finite_difference_check(f, Tensor(ops[name]), h=1e-6) < 1e-4, (layout, name)

    def test_one_node_and_zero_gradients_for_an_empty_group(self):
        sizes = self.layouts["empty_group"]
        args = {k: Tensor(v, requires_grad=True) for k, v in self.operands(sizes).items()}
        with Tape() as tape:
            y = T.sum_(self.apply(args, sizes))
        assert len(tape._nodes) == 2  # routed_ffn, sum
        tape.backward(y)
        for name in ("w1", "b1", "w2", "b2"):
            assert not args[name].grad[1].any() and args[name].grad[0].any(), name

    def test_input_only_pass_leaves_weight_gradients_unset(self):
        for sizes in self.layouts.values():
            args = {k: Tensor(v, requires_grad=True) for k, v in self.operands(sizes).items()}
            with Tape(wrt=[args["x"]]) as tape:
                y = T.sum_(self.apply(args, sizes))
            tape.backward(y)
            assert args["x"].grad is not None
            assert all(args[k].grad is None for k in ("w1", "b1", "w2", "b2"))

    def test_shapes_checked(self):
        sizes = np.array([2, 0, 3])
        ops = self.operands(sizes)

        bad = {"unstacked maps for groups": (self.operands(None), sizes, None, DimensionError),
               "stacked maps without groups": (ops, None, None, DimensionError),
               "a bias of another width": ({**ops, "b2": ops["b2"][:, :3]}, sizes, None,
                                           DimensionError),
               "rows of rank 3": ({**ops, "x": ops["x"][None]}, sizes, None, DimensionError),
               "gate probabilities for 2 experts": (ops, sizes, (np.full((5, 2), 0.5), 5),
                                                    DimensionError),
               "a negative capacity": (ops, sizes, self.route(sizes, -1), ContractError),
               "a float capacity": (ops, sizes, self.route(sizes, 5.0), ContractError),
               "a bool capacity": (ops, sizes, self.route(sizes, True), ContractError)}
        for why, (args, sizes, route, error) in bad.items():
            with pytest.raises(error):
                self.apply({k: Tensor(v) for k, v in args.items()}, sizes, route)
                pytest.fail(why)


class TestAttention:
    """One node for multi-head softmax(q kᵀ / sqrt(d_k)) v from packed
    [N, 3d] query-key-value rows to packed [N, d] rows, each sequence
    attending over its own rows."""

    lengths = {
        "unequal": np.array([3, 5]),
        "equal": np.array([4, 4]),
        # a run of two, and a length-1 sequence between equal lengths
        "runs": np.array([2, 3, 3, 1, 3]),
    }
    num_heads = 2

    def operand(self, lengths, width=6):
        """Packed [N, 3 * width] rows: q, k and v side by side."""
        return rng.standard_normal((int(lengths.sum()), 3 * width))

    @staticmethod
    def composite(qkv, lengths, num_heads):
        """The same attention composed with numpy, one sequence at a time: the rows of
        sequence i are the next ``lengths[i]`` packed rows, q, k and v their
        first, second and third column thirds."""
        out, start = [], 0
        for length in lengths:
            def heads(x):  # [L, d] -> [heads, L, d_k]
                return x[start:start + length].reshape(length, num_heads, -1).transpose(1, 0, 2)

            qh, kh, vh = (heads(x) for x in np.split(qkv, 3, axis=1))
            scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
            scores *= 1.0 / np.sqrt(qh.shape[-1])
            scores -= scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights /= weights.sum(axis=-1, keepdims=True)
            out.append(np.matmul(weights, vh).transpose(1, 0, 2).reshape(length, -1))
            start += length
        return np.concatenate(out)

    def test_matches_the_composite(self):
        for layout, lengths in self.lengths.items():
            qkv = self.operand(lengths)
            fused = T.attention(Tensor(qkv), lengths, self.num_heads).data
            np.testing.assert_array_equal(
                fused, self.composite(qkv, lengths, self.num_heads), err_msg=layout)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_each_sequence_gets_the_bits_it_gets_alone(self, num_heads):
        # Lengths up to 45: a run of two, a length-1 sequence, and a length
        # equal to the run's but not next to it.
        lengths = np.array([12, 30, 30, 1, 45, 30])
        operand = self.operand(lengths, width=8)
        coeffs = rng.standard_normal((len(operand), 8))

        def run(rows, seq_lengths):
            qkv = Tensor(operand[rows], requires_grad=True)
            with Tape() as tape:
                out = T.attention(qkv, seq_lengths, num_heads)
                loss = T.sum_(T.mul(out, Tensor(coeffs[rows])))
            tape.backward(loss)
            return [out.data, qkv.grad]

        batch = run(slice(None), lengths)
        for end, length in zip(np.cumsum(lengths), lengths):
            rows = slice(end - length, end)
            alone = run(rows, np.array([length]))
            for what, got, want in zip(("output", "d(q, k, v)"), batch, alone):
                np.testing.assert_array_equal(got[rows], want, err_msg=f"{what}, rows {rows}")

    def test_finite_difference(self):
        for layout, lengths in self.lengths.items():
            qkv = self.operand(lengths)
            coeffs = Tensor(rng.standard_normal((len(qkv), 6)))

            def f(t, lengths=lengths, coeffs=coeffs):
                return T.sum_(T.mul(T.attention(t, lengths, self.num_heads), coeffs))
            err = finite_difference_check(f, Tensor(qkv), h=1e-6)
            assert err < 1e-4, layout

    def test_one_node_and_non_finite_scores(self):
        lengths = self.lengths["unequal"]
        qkv = Tensor(self.operand(lengths), requires_grad=True)
        with Tape() as tape:
            out = T.attention(qkv, lengths, self.num_heads)
        assert len(tape._nodes) == 1 and out.shape == (8, 6)
        qkv.data[0, 0] = np.nan
        with pytest.raises(NumericError):
            T.attention(qkv, lengths, self.num_heads)

    def test_shape_and_mask_checks(self):
        lengths = self.lengths["unequal"]  # 8 rows
        qkv = Tensor(self.operand(lengths))  # 18 columns: d = 6
        for args in ((Tensor(qkv.data[:, 0]), lengths, 2),  # not [N, 3d] rows
                     (Tensor(qkv.data[None]), lengths, 2),
                     (qkv, lengths, 4),  # d = 6 not divisible by 4 heads
                     (qkv, lengths, 0),
                     (Tensor(qkv.data[:, :16]), lengths, 2),  # 16 columns: not 3 * 2 heads * d_k
                     (Tensor(qkv.data[:, :8]), lengths, 1)):  # 8 columns: not 3 * d
            with pytest.raises(DimensionError):
                T.attention(*args)
        # The one check of a lengths vector, which T.segment_sum shares.
        ops = {"attention": lambda x, n: T.attention(x, n, 2), "segment_sum": T.segment_sum}
        for bad, match in ((np.array([3, 0, 5]), "at least one real token"),  # a zero length
                           (np.array([9, -1]), "at least one real token"),  # a negative length
                           (np.array([], dtype=int), "at least one real token"),  # no sequence
                           (np.array([3, 4]), "one per real token"),  # fewer than the rows
                           (np.array([3, 6]), "one per real token"),  # more than the rows
                           (np.ones((2, 4), bool), "must be ints"),  # a [batch, len] mask
                           (np.array([3.0, 5.0]), "must be ints")):
            for name, op in ops.items():
                with pytest.raises(ContractError, match=match):
                    op(qkv, bad)
                    pytest.fail(f"{name} took lengths {bad}")


class TestSegmentSum:
    """One node summing each sequence's packed rows."""

    @pytest.mark.parametrize("width", [32, 200])
    def test_sums_bit_for_bit_as_the_padded_grid_does(self, width):
        gen = np.random.default_rng(width)
        for _ in range(20):
            lengths = gen.integers(1, 12, size=int(gen.integers(1, 9)))
            lengths[gen.random(len(lengths)) < 0.4] = lengths[0]  # runs of equal lengths
            rows = gen.standard_normal((int(lengths.sum()), width))
            grid = np.zeros((len(lengths), lengths.max(), width))
            grid[np.arange(lengths.max()) < lengths[:, None]] = rows
            got = T.segment_sum(Tensor(rows), lengths).data
            assert got.tobytes() == grid.sum(axis=1).tobytes(), lengths

    def test_backward_repeats_each_sum_gradient_over_its_rows(self):
        lengths = np.array([2, 2, 1, 3])
        x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        coeffs = rng.standard_normal((4, 3))
        with Tape() as tape:
            out = T.segment_sum(x, lengths)
            y = T.sum_(T.mul(out, Tensor(coeffs)))
        tape.backward(y)
        assert len(tape._nodes) == 3 and out.shape == (4, 3)
        np.testing.assert_array_equal(x.grad, np.repeat(coeffs, lengths, axis=0))


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

    def test_tape_keeps_one_byte_per_element_and_the_float_mask_values(self):
        n, rate = 100_000, 0.3
        x = Tensor(rng.standard_normal(n), requires_grad=True)
        upstream = rng.standard_normal(n)
        with Tape() as tape:
            tracemalloc.start()
            out = T.dropout(x, rate, True, np.random.default_rng(4))
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            tracemalloc.stop()
            y = T.sum_(T.mul(out, Tensor(upstream)))
        tape.backward(y)
        assert held <= 1.05 * n  # the boolean keep-mask, not a float64 one
        mask = (np.random.default_rng(4).random(n) >= rate) * (1.0 / (1.0 - rate))
        assert out.data.tobytes() == (x.data * mask).tobytes()
        assert x.grad.tobytes() == (upstream * mask).tobytes()

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


def _tensor_names_used(tree):
    """Names a module's syntax tree takes from ``switchtext.tensor``: those
    it imports from it and the attributes it reads off an alias of it."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor":
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            used.add(node.attr)
    return used


def test_every_public_tape_op_has_a_caller_in_the_package():
    package = Path(switchtext.__file__).parent
    tree = ast.parse((package / "tensor.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "tensor.py":
            used |= _tensor_names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert public and sorted(public - used) == []


def _finite_difference_ops(tree):
    """Attributes read off ``T`` in the tests of a module's syntax tree that
    call ``finite_difference_check``, counting the methods of their class
    they call through ``self``."""
    def reads(node):
        return {n.attr for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "T"}

    def calls_check(node):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "finite_difference_check"
                   for n in ast.walk(node))

    found = set()
    for owner in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        methods = {n.name: n for n in owner.body if isinstance(n, ast.FunctionDef)}
        for test in methods.values():
            if test.name.startswith("test") and calls_check(test):
                found |= reads(test)
                for n in ast.walk(test):
                    if (isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"
                            and owner is not tree and n.attr in methods):
                        found |= reads(methods[n.attr])
    return found


def test_every_public_tape_op_has_a_finite_difference_case():
    package = Path(switchtext.__file__).parent
    tree = ast.parse((package / "tensor.py").read_text(encoding="utf-8"))
    ops = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
           and not node.name.startswith("_") and node.name != "finite_difference_check"}
    checked = set()
    for name in ("test_tensor.py", "test_moe.py"):
        checked |= _finite_difference_ops(ast.parse((Path(__file__).parent / name).read_text(
            encoding="utf-8")))
    assert ops and sorted(ops - checked) == []
