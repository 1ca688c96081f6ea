"""Routed-expert layer tests: gate distribution oracles, hand-evaluated
dispatch, capacity overflow semantics, balance-loss identities, gradient
checks with fixed routing, and the collapse-vs-balance training property."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from hypothesis.extra.numpy import arrays

from helpers import check_many_params, chosen_prob, expert, penalty
from switchtext import AdamW, Tape, Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.attention import FfnParams
from switchtext.errors import ConfigError, ContractError
from switchtext.layers import LinearParams, named_tensors
from switchtext.model import EncoderModel, ModelConfig
from switchtext.moe import (RoutingRecord, SwitchParams, gate_probs, load_balance_loss,
                            switch_forward)

rng = np.random.default_rng(99)


def ffn_numpy(x, p: FfnParams):
    h = np.maximum(0.0, x @ p.lin1.weight.data + p.lin1.bias.data)
    return h @ p.lin2.weight.data + p.lin2.bias.data


def make_params(d=4, d_ff=8, n_experts=2, seed=0):
    return SwitchParams.create(d, d_ff, n_experts, np.random.default_rng(seed))


class TestGateProbs:
    def test_zero_gate_uniform(self):
        gate = LinearParams(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        out = gate_probs(Tensor(rng.standard_normal((1, 4))), gate)
        np.testing.assert_array_equal(out.data, np.full((1, 3), 1 / 3))

    def test_single_expert_degenerate(self):
        gate = LinearParams(Tensor(rng.standard_normal((4, 1))), Tensor(rng.standard_normal(1)))
        out = gate_probs(Tensor(rng.standard_normal((1, 4))), gate)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_log_two_closed_form(self):
        gate = LinearParams(Tensor([[math.log(2.0), 0.0]]), Tensor(np.zeros(2)))
        out = gate_probs(Tensor([[1.0]]), gate)
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_batch_rows_sum_to_one(self):
        gate = LinearParams(Tensor(rng.standard_normal((4, 5))), Tensor(rng.standard_normal(5)))
        out = gate_probs(Tensor(rng.standard_normal((7, 4))), gate)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestSwitchForward:
    def test_single_expert_identity_gate(self):
        p = make_params(n_experts=1)
        x = Tensor(rng.standard_normal((5, 4)))
        out, record = switch_forward(x, p, True, 1.25)
        np.testing.assert_allclose(out.data, ffn_numpy(x.data, expert(p, 0)), atol=1e-12)
        np.testing.assert_array_equal(chosen_prob(record), np.ones(5))
        assert penalty(record).item() == 1.0

    def test_identical_experts_routing_independent(self):
        p = make_params(n_experts=3)
        for lin in (p.experts.lin1, p.experts.lin2):
            lin.weight.data[1:] = lin.weight.data[0]
            lin.bias.data[1:] = lin.bias.data[0]
        x = rng.standard_normal((6, 4))
        out, record = switch_forward(Tensor(x), p, True, 10.0)
        expected = chosen_prob(record)[:, None] * ffn_numpy(x, expert(p, 0))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hand_evaluated_two_token_dispatch(self):
        p = make_params(d=2, d_ff=4, n_experts=2)
        # Gate logits are log-probabilities, so softmax recovers them exactly:
        # token 1 -> expert 0 at 0.9, token 2 -> expert 1 at 0.8.
        p.gate.weight.data = np.array([[math.log(0.9), math.log(0.1)],
                                       [math.log(0.2), math.log(0.8)]])
        p.gate.bias.data = np.zeros(2)
        x = np.eye(2)
        out, record = switch_forward(Tensor(x), p, True, 1.25)
        assert record.capacity == 1  # floor(1.25 * 2 / 2)
        np.testing.assert_array_equal(record.chosen, [0, 1])
        np.testing.assert_allclose(chosen_prob(record), [0.9, 0.8], atol=1e-12)
        np.testing.assert_allclose(out.data[0], 0.9 * ffn_numpy(x[:1], expert(p, 0))[0], atol=1e-12)
        np.testing.assert_allclose(out.data[1], 0.8 * ffn_numpy(x[1:], expert(p, 1))[0], atol=1e-12)
        # f = (1/2, 1/2); P = ((0.9+0.2)/2, (0.1+0.8)/2); aux = 2 * sum(f*P) = 1.0
        np.testing.assert_allclose(penalty(record).item(), 1.0, atol=1e-12)

    def test_argmax_tie_goes_to_lowest_index(self):
        p = make_params(n_experts=3)
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.zeros_like(p.gate.bias.data)
        _, record = switch_forward(Tensor(rng.standard_normal((4, 4))), p, True, 1.25)
        np.testing.assert_array_equal(record.chosen, np.zeros(4, dtype=int))

    def test_capacity_overflow_zero_contribution(self):
        p = make_params(n_experts=2)
        # Force every token to expert 0.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([5.0, -5.0])
        x = rng.standard_normal((6, 4))
        out, record = switch_forward(Tensor(x), p, True, 1.0)
        assert record.capacity == 3  # floor(1.0 * 6 / 2)
        assert record.overflow == 3
        np.testing.assert_array_equal(record.counts, [3, 0])
        np.testing.assert_array_equal(out.data[3:], np.zeros((3, 4)))
        assert np.abs(out.data[:3]).sum() > 0
        # counts + overflow account for every token
        assert record.counts.sum() + record.overflow == 6

    def test_inference_serves_every_token(self):
        p = make_params(n_experts=2)
        # The gate rigged as in the overflow case: every token to expert 0.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([5.0, -5.0])
        p.experts.lin2.bias.data[0] = 1.0  # a served row is never zero
        x = rng.standard_normal((6, 4))
        out, record = switch_forward(Tensor(x), p, False, 1.0)
        assert record.capacity == 6
        assert record.overflow == 0
        np.testing.assert_array_equal(record.counts, [6, 0])
        assert (np.abs(out.data).sum(axis=1) > 0).all()
        expected = chosen_prob(record)[:, None] * ffn_numpy(x, expert(p, 0))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_huge_capacity_factor_serves_every_token(self):
        # 1e308 * T overflows a float; the capacity stops at the token count.
        p = make_params(n_experts=2)
        p.gate.bias.data = np.array([5.0, -5.0])
        _, record = switch_forward(Tensor(rng.standard_normal((6, 4))), p, True, 1e308)
        assert record.capacity == 6 and record.overflow == 0

    def test_capacity_zero_serves_no_token(self):
        # floor(1.25 * 2 / 4) = 0: no expert serves anything in training.
        p = make_params(n_experts=4)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        with Tape() as tape:
            out, record = switch_forward(x, p, True, 1.25)
            loss = T.add(T.sum_(out), penalty(record))
        tape.backward(loss)
        assert record.capacity == 0
        assert record.overflow == record.num_tokens == 2
        np.testing.assert_array_equal(record.counts, np.zeros(4))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))
        assert p.experts.lin1.weight.grad is None and x.grad is not None

    def test_input_rank_enforced(self):
        with pytest.raises(ContractError):
            switch_forward(Tensor(np.ones(4)), make_params(), True, 1.25)

    def test_training_is_the_third_positional_parameter(self):
        # A tracer reads a call's training flag as args[2]; the capacity
        # factor follows it, and neither has a default.
        params = inspect.signature(switch_forward).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for name in ("x", "p", "training", "capacity_factor")]


class TestAuxLoss:
    def test_perfect_balance_is_exactly_one(self):
        assert load_balance_loss(Tensor(np.full(4, 0.25)), np.array([2, 2, 2, 2])).item() == 1.0

    def test_imbalance_exceeds_one(self):
        aux = load_balance_loss(Tensor(np.array([0.9, 0.1])), np.array([4, 0])).item()
        np.testing.assert_allclose(aux, 1.8, atol=1e-12)

    def test_at_least_one_on_constructed_routings(self):
        # Graded families from perfect balance to full concentration; the
        # dispatch fractions and mean gate probabilities are similarly
        # ordered by construction, which is what the >= 1 bound needs.
        for concentration in (0.25, 0.4, 0.6, 0.85, 0.97):
            rest = (1.0 - concentration) / 3.0
            n_hot = max(1, int(round(concentration * 16)))
            probs = np.full((16, 4), rest)
            probs[:, 0] = concentration
            chosen = np.array([0] * n_hot + [1, 2, 3] * ((16 - n_hot) // 3 + 1))[:16]
            aux = load_balance_loss(Tensor(probs.mean(axis=0)),
                                    np.bincount(chosen, minlength=4)).item()
            assert aux >= 1.0 - 1e-12
        # Full concentration: f = (1,0,0,0), P ~ one-hot -> aux -> E.
        probs = np.zeros((8, 4))
        probs[:, 0] = 1.0
        assert load_balance_loss(Tensor(probs.mean(axis=0)), np.array([8, 0, 0, 0])).item() == 4.0


class TestGradients:
    def test_gradients_with_fixed_routing(self):
        p = make_params(d=4, d_ff=6, n_experts=2, seed=3)
        x = rng.standard_normal((3, 4))
        probs = gate_probs(Tensor(x), p.gate).data
        margins = np.abs(probs[:, 0] - probs[:, 1])
        assert margins.min() > 1e-3  # far from a routing flip, safe for +-h probes
        coeffs = Tensor(rng.standard_normal((3, 4)))

        def make_loss():
            out, record = switch_forward(Tensor(x), p, True, 10.0)
            return T.add(T.sum_(T.mul(out, coeffs)), T.mul(penalty(record), 0.01))

        check_many_params(make_loss, [
            (p.gate, "weight"), (p.gate, "bias"),
            (p.experts.lin1, "weight"), (p.experts.lin1, "bias"),
            (p.experts.lin2, "weight"), (p.experts.lin2, "bias"),
        ])


def switch_reference(x, p: SwitchParams, capacity_factor, coeffs, aux_weight):
    """Training-mode switch output and the gradients of
    sum(out * coeffs) + aux_weight * aux, by a per-expert numpy loop with
    hand-written backward rules."""
    w1, b1 = p.experts.lin1.weight.data, p.experts.lin1.bias.data
    w2, b2 = p.experts.lin2.weight.data, p.experts.lin2.bias.data
    num_tokens, E = len(x), len(w1)
    z = x @ p.gate.weight.data + p.gate.bias.data
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    chosen = probs.argmax(axis=1)
    capacity = int(np.floor(capacity_factor * num_tokens / E))
    out = np.zeros_like(x)
    grads = {"x": np.zeros_like(x), "w1": np.zeros_like(w1), "b1": np.zeros_like(b1),
             "w2": np.zeros_like(w2), "b2": np.zeros_like(b2)}
    d_probs = np.zeros_like(probs)
    for j in range(E):
        kept = np.flatnonzero(chosen == j)[:capacity]
        h = x[kept] @ w1[j] + b1[j]
        a = np.maximum(h, 0.0)
        y = a @ w2[j] + b2[j]
        out[kept] = probs[kept, j][:, None] * y
        d_probs[kept, j] = (coeffs[kept] * y).sum(axis=1)
        dy = coeffs[kept] * probs[kept, j][:, None]
        grads["w2"][j], grads["b2"][j] = a.T @ dy, dy.sum(axis=0)
        dh = (dy @ w2[j].T) * (h > 0)
        grads["w1"][j], grads["b1"][j] = x[kept].T @ dh, dh.sum(axis=0)
        grads["x"][kept] += dh @ w1[j].T
    # aux = E * sum_j f_j * mean_t probs[t, j]
    frac = np.bincount(chosen, minlength=E) / num_tokens
    d_probs += aux_weight * E * frac / num_tokens
    dz = (d_probs - (d_probs * probs).sum(axis=1, keepdims=True)) * probs
    grads["gate_w"], grads["gate_b"] = x.T @ dz, dz.sum(axis=0)
    grads["x"] += dz @ p.gate.weight.data.T
    return out, grads


class TestStackedDispatch:
    def test_training_matches_per_expert_loop(self):
        p = make_params(d=6, d_ff=10, n_experts=3, seed=4)
        p.gate.bias.data = np.array([1.5, 0.0, -0.5])  # expert 0 overflows
        x = Tensor(rng.standard_normal((12, 6)), requires_grad=True)
        coeffs = rng.standard_normal((12, 6))
        with Tape() as tape:
            out, record = switch_forward(x, p, True, 1.0)
            loss = T.add(T.sum_(T.mul(out, Tensor(coeffs))), T.mul(penalty(record), 0.01))
        tape.backward(loss)
        assert record.overflow > 0 and record.counts.min() > 0
        expected, grads = switch_reference(x.data, p, 1.0, coeffs, 0.01)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        got = {"x": x.grad, "w1": p.experts.lin1.weight.grad, "b1": p.experts.lin1.bias.grad,
               "w2": p.experts.lin2.weight.grad, "b2": p.experts.lin2.bias.grad,
               "gate_w": p.gate.weight.grad, "gate_b": p.gate.bias.grad}
        for name, g in grads.items():
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_fresh_draw_is_expert_by_expert(self):
        # Expert j's weights are the draws E separate FFNs would get, in turn.
        gen = np.random.default_rng(2)
        p = SwitchParams.create(4, 6, 3, np.random.default_rng(2))
        gen.normal(size=(4, 3))  # the gate
        for j in range(3):
            np.testing.assert_array_equal(p.experts.lin1.weight.data[j],
                                          gen.normal(0.0, np.sqrt(2 / 10), size=(4, 6)))
            np.testing.assert_array_equal(p.experts.lin2.weight.data[j],
                                          gen.normal(0.0, np.sqrt(2 / 10), size=(6, 4)))


def served_tokens(chosen, E, capacity):
    """The tokens served, in stable expert order: expert j's first
    ``capacity`` tokens in token order, expert after expert."""
    return np.concatenate([np.flatnonzero(chosen == j)[:capacity] for j in range(E)])


def routed_oracle(x, w1, b1, w2, b2, probs, chosen, capacity, g):
    """The routed node's output and its six gradients for the incoming
    gradient ``g``, replaying in numpy the order of the separate nodes it
    replaces: gather the served rows of the ``chosen`` experts, run each
    expert's group (GEMM and bias, ReLU, GEMM and bias), scatter into zeros,
    multiply by the picked gate probabilities; and their backward rules in
    reverse."""
    n, E = probs.shape
    kept = served_tokens(chosen, E, capacity)
    sizes = np.bincount(chosen[kept], minlength=E)
    ends = np.cumsum(sizes)
    groups = [(j, slice(end - size, end)) for j, (size, end) in enumerate(zip(sizes, ends)) if size]
    xs = x[kept]
    h, served = np.empty((len(kept), w1.shape[-1])), np.empty((len(kept), x.shape[1]))
    for j, r in groups:
        np.matmul(xs[r], w1[j], out=h[r])
        h[r] += b1[j]
    np.maximum(h, 0.0, out=h)
    for j, r in groups:
        np.matmul(h[r], w2[j], out=served[r])
        served[r] += b2[j]
    combined = np.zeros(x.shape)
    combined[kept] = served
    pick = probs[np.arange(n)[:, None], chosen[:, None]]
    out = combined * pick

    grads = {"probs": np.zeros(probs.shape)}
    # the product's vjp for the [T, 1] pick sums over columns, unless there is one
    d_pick = g * combined if x.shape[1] == 1 else (g * combined).sum(axis=1, keepdims=True)
    grads["probs"][np.arange(n)[:, None], chosen[:, None]] = d_pick
    if not groups:  # nothing served: the scatter had no input on the tape
        return out, grads
    d_served = (g * pick)[kept]
    dh = np.empty(h.shape)
    for j, r in groups:
        np.matmul(d_served[r], w2[j].T, out=dh[r])
    dh *= h > 0
    d_xs = np.empty(xs.shape)
    grads.update({k: np.zeros(v.shape) for k, v in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2))})
    for j, r in groups:
        np.matmul(dh[r], w1[j].T, out=d_xs[r])
        np.matmul(xs[r].T, dh[r], out=grads["w1"][j])
        np.sum(dh[r], axis=0, out=grads["b1"][j])
        np.matmul(h[r].T, d_served[r], out=grads["w2"][j])
        np.sum(d_served[r], axis=0, out=grads["b2"][j])
    grads["x"] = np.zeros(x.shape)
    grads["x"][kept] = d_xs
    return out, grads


def assert_same_bits(got, want, what):
    np.testing.assert_array_equal(got, want, err_msg=what)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=f"{what}: zero signs")


class TestRoutedFfn:
    """``T.routed_ffn`` against the numpy replay of the composite it replaces,
    bit for bit, output and all six gradients, zero signs included."""

    # name: (tokens, experts, how tokens pick experts, capacity or None for every token)
    CASES = {
        "one_expert": (6, 1, "random", None),
        "empty_expert": (9, 3, "skip_1", None),
        "every_row_on_one_expert": (7, 3, "all_2", None),
        "capacity_cuts": (12, 3, "random", 3),
        "capacity_cuts_with_an_empty_expert": (10, 4, "skip_1", 2),
        "no_row_served": (5, 3, "random", 0),
        "inference": (11, 4, "random", None),
    }
    NAMES = ("x", "w1", "b1", "w2", "b2", "probs")

    @classmethod
    def draw(cls, case, d=4, f=6, seed=0):
        """Operands whose gate probabilities pick the wanted ``chosen``
        experts by a margin above 1/(1.1 E + 2), far wider than a finite
        difference step; the capacity; and the incoming gradient."""
        n, E, how, capacity = cls.CASES[case]
        gen = np.random.default_rng(seed + sorted(cls.CASES).index(case))
        if how == "random":
            chosen = gen.integers(0, E, n)
        elif how == "skip_1":
            chosen = gen.choice(np.delete(np.arange(E), 1), n)
        else:
            chosen = np.full(n, E - 1)
        probs = gen.random((n, E)) + 0.1
        probs[np.arange(n), chosen] += 2.0
        probs /= probs.sum(axis=1, keepdims=True)
        ops = {"x": gen.standard_normal((n, d)), "w1": gen.standard_normal((E, d, f)),
               "b1": gen.standard_normal((E, f)), "w2": gen.standard_normal((E, f, d)),
               "b2": gen.standard_normal((E, d)), "probs": probs}
        # Mixed signs and magnitudes, and exact zeros, so a changed order of
        # operations or a lost zero sign shows in the bits.
        coeffs = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-3, 3, (n, d))
        coeffs[gen.random((n, d)) < 0.2] = 0.0
        coeffs[0, 0] = -0.0
        return ops, chosen, n if capacity is None else capacity, coeffs

    @staticmethod
    def apply(args, capacity):
        return T.routed_ffn(args["x"], args["w1"], args["b1"], args["w2"], args["b2"],
                            args["probs"], capacity)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_and_gradients_match_the_composite_bit_for_bit(self, case):
        ops, chosen, capacity, coeffs = self.draw(case)
        args = {k: Tensor(v, requires_grad=True) for k, v in ops.items()}
        with Tape() as tape:
            out = self.apply(args, capacity)
            loss = T.sum_(T.mul(out, Tensor(coeffs)))
        assert len(tape._nodes) == 3
        tape.backward(loss)
        want, grads = routed_oracle(*(ops[k] for k in self.NAMES), chosen, capacity, coeffs)
        assert_same_bits(out.data, want, "output")
        untaped = self.apply({k: Tensor(v) for k, v in ops.items()}, capacity)
        assert_same_bits(untaped.data, want, "output without a tape")
        for name in self.NAMES:
            if name in grads:
                assert_same_bits(args[name].grad, grads[name], name)
            else:  # no row served: only the gate probabilities are differentiated
                assert args[name].grad is None, name

    @pytest.mark.parametrize("case", ["capacity_cuts_with_an_empty_expert", "one_expert"])
    def test_finite_difference(self, case):
        ops, chosen, capacity, _ = self.draw(case, seed=7)
        kept = served_tokens(chosen, len(ops["w1"]), capacity)
        coeffs = np.random.default_rng(7).standard_normal(ops["x"].shape)
        hidden = np.einsum("td,tdf->tf", ops["x"][kept], ops["w1"][chosen[kept]])
        assert np.abs(hidden + ops["b1"][chosen[kept]]).min() > 1e-3  # away from the ReLU kink
        for name in self.NAMES:
            def f(t, name=name):
                args = {k: Tensor(v) for k, v in ops.items()}
                args[name] = t
                return T.sum_(T.mul(self.apply(args, capacity), Tensor(coeffs)))
            assert finite_difference_check(f, Tensor(ops[name]), h=1e-6) < 1e-4, (case, name)

    @settings(max_examples=60, deadline=None)
    @given(st_.integers(1, 12), st_.integers(1, 4), st_.data())
    def test_record_derives_what_the_node_served(self, n, E, data):
        # Small integer weights make exact ties in the gate probabilities.
        weights = data.draw(arrays(np.int64, (n, E), elements=st_.integers(1, 3))).tolist()
        capacity = data.draw(st_.integers(0, n + 1))
        probs = np.asarray(weights, dtype=float)
        probs /= probs.sum(axis=1, keepdims=True)
        # Expert j adds e_j: the nonzero column of an output row names the
        # expert that served it.
        maps = (np.zeros((E, E, 1)), np.ones((E, 1)), np.zeros((E, 1, E)), np.eye(E))
        out = T.routed_ffn(np.ones((n, E)), *maps, probs, capacity).data
        served = np.flatnonzero(out.any(axis=1))
        expert_of = out[served].argmax(axis=1)
        record = RoutingRecord(probs=Tensor(probs), capacity=capacity)
        np.testing.assert_array_equal(record.chosen, [row.index(max(row)) for row in weights])
        np.testing.assert_array_equal(record.chosen[served], expert_of)
        np.testing.assert_array_equal(record.counts, np.bincount(expert_of, minlength=E))
        np.testing.assert_array_equal(np.sort(served), np.sort(served_tokens(record.chosen, E, capacity)))
        assert record.overflow == n - len(served)


class TestForcedGate:
    def test_gate_forced_to_one_matches_single_expert_exactly(self):
        p = make_params(d=3, d_ff=5, n_experts=2, seed=8)
        # A huge negative logit underflows to probability exactly 0, so the
        # chosen probability is exactly 1 and, uncapped, every token is served.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([0.0, -1e30])
        x = rng.standard_normal((5, 3))
        out, _ = switch_forward(Tensor(x), p, False, 1.25)
        np.testing.assert_array_equal(out.data, ffn_numpy(x, expert(p, 0)))


class TestExpertUtilization:
    """Utilization is ``dispatched_counts() / num_tokens``; the served counts
    and the overflow are derived from the probabilities and the capacity."""

    def make_record(self, chosen, num_experts, capacity, overflow):
        probs = np.full((len(chosen), num_experts), 0.1)
        probs[np.arange(len(chosen)), chosen] = 0.7
        record = RoutingRecord(probs=Tensor(probs), capacity=capacity)
        assert record.overflow == overflow
        return record

    def test_all_one_expert(self):
        record = self.make_record([0] * 5, 3, 5, 0)
        np.testing.assert_array_equal(record.counts, [5, 0, 0])
        np.testing.assert_array_equal(record.dispatched_counts() / record.num_tokens,
                                      [1.0, 0.0, 0.0])

    def test_perfectly_balanced(self):
        record = self.make_record([0, 1, 2, 0, 1, 2], 3, 2, 0)
        np.testing.assert_array_equal(record.counts, [2, 2, 2])
        np.testing.assert_allclose(record.dispatched_counts() / record.num_tokens, [1 / 3] * 3,
                                   atol=1e-15)

    def test_counts_arithmetic_with_overflow(self):
        # Overflowed tokens still count at their chosen expert.
        record = self.make_record([0, 0, 0, 1], 2, 2, 1)
        np.testing.assert_array_equal(record.counts, [2, 1])
        np.testing.assert_array_equal(record.dispatched_counts() / record.num_tokens, [0.75, 0.25])
        np.testing.assert_array_equal(record.dispatched_counts() - record.counts, [1, 0])


class TestConfigValidation:
    def test_bad_capacity_factor(self):
        for training in (True, False):
            with pytest.raises(ConfigError):
                switch_forward(Tensor(np.ones((3, 4))), make_params(), training, 0.5)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_capacity_factor(self, factor):
        with pytest.raises(ConfigError, match="finite"):
            switch_forward(Tensor(np.ones((3, 4))), make_params(), True, factor)

    def test_bad_expert_count(self):
        with pytest.raises(ConfigError, match="num_experts must be >= 1"):
            EncoderModel.build(ModelConfig(num_experts=0, d_model=8, d_ff=16))


class TestBalanceTraining:
    """With the tokens bimodal along one ray, both modes sit on the same side
    of every gate hyperplane, so the initial routing winner takes all tokens
    and, with no balance pressure, keeps them."""

    @staticmethod
    def run_once(seed, aux_weight, steps=250, n_tokens=64, d=8, lr=1e-2):
        gen = np.random.default_rng(seed)
        half = n_tokens // 2
        direction = gen.standard_normal(d)
        direction /= np.linalg.norm(direction)
        xa = 0.6 * direction + gen.normal(0, 0.1, size=(half, d))
        xb = 1.8 * direction + gen.normal(0, 0.1, size=(half, d))
        x = np.concatenate([xa, xb])
        gen.shuffle(x)
        w_star = gen.standard_normal((d, d)) * 0.5
        y = Tensor(np.maximum(0.0, x @ w_star))
        p = SwitchParams.create(d, 16, 2, gen)
        opt = AdamW(named_tensors(p, "switch"))
        record = None
        for _ in range(steps):
            with Tape() as tape:
                out, record = switch_forward(Tensor(x), p, True, 4.0)
                diff = T.add(out, T.mul(y, -1.0))
                loss = T.mean(T.mul(diff, diff))
                if aux_weight:
                    loss = T.add(loss, T.mul(penalty(record), aux_weight))
            tape.backward(loss)
            opt.step(lr)
            opt.zero_grad()
        return (record.dispatched_counts() / record.num_tokens).max()

    def test_aux_loss_prevents_collapse(self):
        seeds = [1, 2, 3, 4, 5]
        collapsed = sum(self.run_once(s, aux_weight=0.0) >= 0.95 for s in seeds)
        balanced = sum(self.run_once(s, aux_weight=0.05) <= 0.80 for s in seeds)
        assert collapsed >= 4, f"collapse arm: only {collapsed}/5 seeds collapsed"
        assert balanced >= 4, f"balance arm: only {balanced}/5 seeds balanced"
