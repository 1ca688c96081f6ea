"""Routed-expert layer tests: gate distribution oracles, hand-evaluated
dispatch, capacity overflow semantics, balance-loss identities, gradient
checks with fixed routing, and the collapse-vs-balance training property."""

import math

import numpy as np
import pytest

from helpers import check_many_params
from switchtext import AdamW, Tape, Tensor
from switchtext import tensor as T
from switchtext.attention import FfnParams
from switchtext.errors import ConfigError, ContractError
from switchtext.layers import LinearParams, named_tensors
from switchtext.moe import (RoutingRecord, SwitchParams, expert_utilization,
                            gate_probs, load_balance_loss, switch_forward)

rng = np.random.default_rng(99)


def ffn_numpy(x, p: FfnParams):
    h = np.maximum(0.0, x @ p.lin1.weight.data + p.lin1.bias.data)
    return h @ p.lin2.weight.data + p.lin2.bias.data


def make_params(d=4, d_ff=8, n_experts=2, seed=0, **kw):
    return SwitchParams.create(d, d_ff, n_experts, np.random.default_rng(seed), **kw)


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
        out, record, aux = switch_forward(x, p)
        np.testing.assert_allclose(out.data, ffn_numpy(x.data, p.experts[0]), atol=1e-12)
        np.testing.assert_array_equal(record.chosen_prob, np.ones(5))
        assert aux.item() == 1.0

    def test_identical_experts_routing_independent(self):
        p = make_params(n_experts=3, capacity_factor=10.0)
        for e in p.experts[1:]:
            e.lin1.weight.data = p.experts[0].lin1.weight.data.copy()
            e.lin1.bias.data = p.experts[0].lin1.bias.data.copy()
            e.lin2.weight.data = p.experts[0].lin2.weight.data.copy()
            e.lin2.bias.data = p.experts[0].lin2.bias.data.copy()
        x = rng.standard_normal((6, 4))
        out, record, _ = switch_forward(Tensor(x), p)
        expected = record.chosen_prob[:, None] * ffn_numpy(x, p.experts[0])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hand_evaluated_two_token_dispatch(self):
        p = make_params(d=2, d_ff=4, n_experts=2, capacity_factor=1.25)
        # Gate logits are log-probabilities, so softmax recovers them exactly:
        # token 1 -> expert 0 at 0.9, token 2 -> expert 1 at 0.8.
        p.gate.weight.data = np.array([[math.log(0.9), math.log(0.1)],
                                       [math.log(0.2), math.log(0.8)]])
        p.gate.bias.data = np.zeros(2)
        x = np.eye(2)
        out, record, aux = switch_forward(Tensor(x), p)
        assert record.capacity == 1  # floor(1.25 * 2 / 2)
        np.testing.assert_array_equal(record.chosen, [0, 1])
        np.testing.assert_allclose(record.chosen_prob, [0.9, 0.8], atol=1e-12)
        np.testing.assert_allclose(out.data[0], 0.9 * ffn_numpy(x[:1], p.experts[0])[0], atol=1e-12)
        np.testing.assert_allclose(out.data[1], 0.8 * ffn_numpy(x[1:], p.experts[1])[0], atol=1e-12)
        # f = (1/2, 1/2); P = ((0.9+0.2)/2, (0.1+0.8)/2); aux = 2 * sum(f*P) = 1.0
        np.testing.assert_allclose(aux.item(), 1.0, atol=1e-12)

    def test_argmax_tie_goes_to_lowest_index(self):
        p = make_params(n_experts=3)
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.zeros_like(p.gate.bias.data)
        _, record, _ = switch_forward(Tensor(rng.standard_normal((4, 4))), p)
        np.testing.assert_array_equal(record.chosen, np.zeros(4, dtype=int))

    def test_capacity_overflow_zero_contribution(self):
        p = make_params(n_experts=2, capacity_factor=1.0)
        # Force every token to expert 0.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([5.0, -5.0])
        x = rng.standard_normal((6, 4))
        out, record, _ = switch_forward(Tensor(x), p)
        assert record.capacity == 3  # floor(1.0 * 6 / 2)
        assert record.overflow == 3
        np.testing.assert_array_equal(record.counts, [3, 0])
        np.testing.assert_array_equal(out.data[3:], np.zeros((3, 4)))
        assert np.abs(out.data[:3]).sum() > 0
        # counts + overflow account for every token
        assert record.counts.sum() + record.overflow == 6

    def test_inference_serves_every_token(self):
        p = make_params(n_experts=2, capacity_factor=1.0)
        # The gate rigged as in the overflow case: every token to expert 0.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([5.0, -5.0])
        p.experts[0].lin2.bias.data = np.ones(4)  # a served row is never zero
        x = rng.standard_normal((6, 4))
        out, record, _ = switch_forward(Tensor(x), p, training=False)
        assert record.capacity == 6
        assert record.overflow == 0
        np.testing.assert_array_equal(record.counts, [6, 0])
        assert (np.abs(out.data).sum(axis=1) > 0).all()
        expected = record.chosen_prob[:, None] * ffn_numpy(x, p.experts[0])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_input_rank_enforced(self):
        with pytest.raises(ContractError):
            switch_forward(Tensor(np.ones(4)), make_params())


class TestAuxLoss:
    def test_perfect_balance_is_exactly_one(self):
        probs = Tensor(np.full((8, 4), 0.25))
        chosen = np.array([0, 1, 2, 3] * 2)
        assert load_balance_loss(probs, chosen, 4).item() == 1.0

    def test_imbalance_exceeds_one(self):
        probs = Tensor(np.array([[0.9, 0.1]] * 4))
        chosen = np.zeros(4, dtype=int)
        np.testing.assert_allclose(load_balance_loss(probs, chosen, 2).item(), 1.8, atol=1e-12)

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
            aux = load_balance_loss(Tensor(probs), np.sort(chosen)[::-1].copy(), 4).item()
            assert aux >= 1.0 - 1e-12
        # Full concentration: f = (1,0,0,0), P ~ one-hot -> aux -> E.
        probs = np.zeros((8, 4))
        probs[:, 0] = 1.0
        assert load_balance_loss(Tensor(probs), np.zeros(8, dtype=int), 4).item() == 4.0


class TestGradients:
    def test_gradients_with_fixed_routing(self):
        p = make_params(d=4, d_ff=6, n_experts=2, seed=3, capacity_factor=10.0)
        x = rng.standard_normal((3, 4))
        probs = gate_probs(Tensor(x), p.gate).data
        margins = np.abs(probs[:, 0] - probs[:, 1])
        assert margins.min() > 1e-3  # far from a routing flip, safe for +-h probes
        coeffs = Tensor(rng.standard_normal((3, 4)))

        def make_loss():
            out, _, aux = switch_forward(Tensor(x), p, training=True)
            return T.add(T.sum_(T.mul(out, coeffs)), T.mul(aux, 0.01))

        check_many_params(make_loss, [
            (p.gate, "weight"), (p.gate, "bias"),
            (p.experts[0].lin1, "weight"), (p.experts[0].lin2, "bias"),
            (p.experts[1].lin1, "bias"), (p.experts[1].lin2, "weight"),
        ])


class TestForcedGate:
    def test_gate_forced_to_one_matches_single_expert_exactly(self):
        p = make_params(d=3, d_ff=5, n_experts=2, seed=8)
        # A huge negative logit underflows to probability exactly 0, so the
        # chosen probability is exactly 1 and, uncapped, every token is served.
        p.gate.weight.data = np.zeros_like(p.gate.weight.data)
        p.gate.bias.data = np.array([0.0, -1e30])
        x = rng.standard_normal((5, 3))
        out, _, _ = switch_forward(Tensor(x), p, training=False)
        np.testing.assert_array_equal(out.data, ffn_numpy(x, p.experts[0]))


class TestExpertUtilization:
    def make_record(self, chosen, counts, overflow):
        chosen = np.asarray(chosen)
        return RoutingRecord(chosen=chosen, chosen_prob=np.full(len(chosen), 0.9),
                             counts=np.asarray(counts), overflow=overflow, capacity=99)

    def test_all_one_expert(self):
        record = self.make_record([0] * 5, [5, 0, 0], 0)
        np.testing.assert_array_equal(expert_utilization(record), [1.0, 0.0, 0.0])

    def test_perfectly_balanced(self):
        record = self.make_record([0, 1, 2, 0, 1, 2], [2, 2, 2], 0)
        np.testing.assert_allclose(expert_utilization(record), [1 / 3] * 3, atol=1e-15)

    def test_counts_arithmetic_with_overflow(self):
        # Overflowed tokens still count at their chosen expert.
        record = self.make_record([0, 0, 0, 1], [2, 1], 1)
        np.testing.assert_array_equal(expert_utilization(record), [0.75, 0.25])
        np.testing.assert_array_equal(record.overflow_fractions(), [0.25, 0.0])


class TestConfigValidation:
    def test_bad_capacity_factor(self):
        with pytest.raises(ConfigError):
            make_params(capacity_factor=0.5)

    def test_bad_expert_count(self):
        with pytest.raises(ConfigError):
            make_params(n_experts=0)


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
        p = SwitchParams.create(d, 16, 2, gen, capacity_factor=4.0)
        opt = AdamW(named_tensors(p, "switch"))
        record = None
        for _ in range(steps):
            with Tape() as tape:
                out, record, aux = switch_forward(Tensor(x), p, training=True)
                diff = T.add(out, T.mul(y, -1.0))
                loss = T.mean(T.mul(diff, diff))
                if aux_weight:
                    loss = T.add(loss, T.mul(aux, aux_weight))
            tape.backward(loss)
            opt.step(lr)
            opt.zero_grad()
        return expert_utilization(record).max()

    def test_aux_loss_prevents_collapse(self):
        seeds = [1, 2, 3, 4, 5]
        collapsed = sum(self.run_once(s, aux_weight=0.0) >= 0.95 for s in seeds)
        balanced = sum(self.run_once(s, aux_weight=0.05) <= 0.80 for s in seeds)
        assert collapsed >= 4, f"collapse arm: only {collapsed}/5 seeds collapsed"
        assert balanced >= 4, f"balance arm: only {balanced}/5 seeds balanced"
