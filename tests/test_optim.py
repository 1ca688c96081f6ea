"""Optimizer tests: update-rule oracles, Adam/AdamW equivalence, schedule
endpoints and continuity, accumulation equivalence."""

import math

import numpy as np
import pytest

from switchtext import AdamW, RunConfig, Tensor, cosine_warmup_lr
from switchtext import tensor as T
from switchtext.errors import ConfigError, ContractError, NumericError
from switchtext.optim import CHUNK, clip_grad_norm
from switchtext.tensor import Tape


def make_param(value):
    p = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    return p


def textbook_adam(values, grads, lr):
    """Plain Adam (betas 0.9, 0.999, eps 5e-6), written independently."""
    w = values.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + 5e-6)
    return w


class TestAdamW:
    def test_first_step_oracle(self):
        # m_hat = v_hat = 1 on the first unit-gradient step, so the update is
        # lr / (1 + eps).
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = AdamW([("p", p)], eps=5e-6, weight_decay=0.0)
        opt.step(lr=0.1)
        expected = 1.0 - 0.1 / (1.0 + 5e-6)
        np.testing.assert_allclose(p.data, [expected], atol=1e-12)
        np.testing.assert_allclose(p.data, [0.9000005], atol=1e-7)

    def test_zero_gradient_no_motion(self):
        p = make_param([2.5])
        p.grad = np.array([0.0])
        AdamW([("p", p)], weight_decay=0.0).step(lr=0.1)
        np.testing.assert_array_equal(p.data, [2.5])

    def test_pure_decoupled_decay(self):
        p = make_param([1.0])
        p.grad = np.array([0.0])
        AdamW([("p", p)], weight_decay=0.01).step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.999], atol=1e-15)

    def test_zero_decay_is_plain_adam_bitwise(self):
        gen = np.random.default_rng(8)
        values = gen.standard_normal(6)
        grads = [gen.standard_normal(6) for _ in range(5)]

        p = make_param(values.copy())
        opt = AdamW([("p", p)], beta1=0.9, beta2=0.999, eps=5e-6, weight_decay=0.0)
        for g in grads:
            p.grad = g.copy()
            opt.step(lr=0.01)
        np.testing.assert_array_equal(p.data, textbook_adam(values, grads, lr=0.01))

    def test_preset_and_foreign_gradients_reach_the_update(self):
        # One gradient is set before the optimizer adopts the parameter, the
        # next is a new array assigned after a zero_grad.
        gen = np.random.default_rng(10)
        values = gen.standard_normal(4)
        grads = [gen.standard_normal(4) for _ in range(2)]
        p = make_param(values.copy())
        p.grad = grads[0].copy()
        opt = AdamW([("p", p)])
        opt.step(lr=0.01)
        opt.zero_grad()
        p.grad = grads[1].copy()
        opt.step(lr=0.01)
        np.testing.assert_array_equal(p.data, textbook_adam(values, grads, lr=0.01))
        np.testing.assert_array_equal(opt.grad, grads[1])

    def test_rebound_data_makes_step_raise(self):
        p = make_param([1.0, 2.0])
        opt = AdamW([("head.bias", p)])
        p.data = np.array([3.0, 4.0])
        p.grad = np.ones(2)
        with pytest.raises(ContractError, match="head.bias.data was rebound"):
            opt.step(lr=0.1)
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()
        np.testing.assert_array_equal(opt.data, [1.0, 2.0])

    def test_non_finite_gradient_aborts(self):
        p = make_param([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="encoder.bias"):
            AdamW([("encoder.bias", p)]).step(lr=0.1)

    def test_named_params_in_diagnostics(self):
        p = make_param([1.0])
        p.grad = np.array([np.inf])
        with pytest.raises(NumericError, match="head.weight"):
            AdamW([("head.weight", p)]).step(lr=0.1)

    def test_non_finite_gradient_changes_nothing(self):
        params = [make_param([1.0, 2.0]), make_param([3.0]), make_param([4.0, 5.0])]
        opt = AdamW([(f"w{i}", p) for i, p in enumerate(params)], weight_decay=0.01)
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step(lr=0.1)
        params[-1].grad = np.array([0.5, np.nan])
        before = [p.data.copy() for p in params], opt.m.copy(), opt.v.copy(), opt.t
        with pytest.raises(NumericError, match="w2"):
            opt.step(lr=0.1)
        assert opt.t == before[3]
        for a, b in zip([p.data for p in params], before[0]):
            np.testing.assert_array_equal(a, b)
        # The moments are flat arenas: compare them whole, not element by element.
        assert opt.m.shape == opt.v.shape == (5,)
        np.testing.assert_array_equal(opt.m, before[1])
        np.testing.assert_array_equal(opt.v, before[2])

    def test_step_updates_in_place_like_the_out_of_place_formula(self):
        gen = np.random.default_rng(9)
        # "c" spans more than one chunk, ends in a partial one and moves the
        # segment after it off the chunk boundaries; "d" starts as a
        # transposed view and is adopted into its C-ordered segment.
        params = [("a", make_param(gen.standard_normal((3, 4)))),
                  ("b", make_param(gen.standard_normal(5))),
                  ("c", make_param(gen.standard_normal(2 * CHUNK + 7))),
                  ("d", make_param(gen.standard_normal((6, 5)).T))]
        assert not params[3][1].data.flags.c_contiguous
        w = [p.data.copy() for _, p in params]
        m = [np.zeros(p.shape) for _, p in params]
        v = [np.zeros(p.shape) for _, p in params]
        opt = AdamW(params, weight_decay=0.02)
        segments = list(zip(opt.offsets, opt.offsets[1:]))
        assert segments[-1][1] == opt.data.size == sum(x.size for x in w)
        views = [(p.data, p.grad) for _, p in params]
        for t in range(1, 4):
            grads = [gen.standard_normal(p.shape) for _, p in params]
            for (_, p), g in zip(params, grads):
                p.grad = g
            opt.step(lr=0.01)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for i, g in enumerate(grads):
                m[i] = m[i] * 0.9 + (1.0 - 0.9) * g
                v[i] = v[i] * 0.999 + (1.0 - 0.999) * g * g
                update = 0.01 * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + 5e-6)
                w[i] = w[i] - (update + 0.01 * 0.02 * w[i])
        for i, ((_, p), (lo, hi)) in enumerate(zip(params, segments)):
            assert p.data.tobytes() == w[i].tobytes() == opt.data[lo:hi].tobytes()
            assert opt.m[lo:hi].tobytes() == m[i].tobytes()
            assert opt.v[lo:hi].tobytes() == v[i].tobytes()
            # Still the same views of the parameter's own segment of each arena.
            assert p.data is views[i][0] and p.grad is views[i][1]
            for view, arena in ((p.data, opt.data), (p.grad, opt.grad)):
                assert view.base is arena and view.ctypes.data == arena[lo:].ctypes.data
                assert view.flags.c_contiguous and view.size == hi - lo


class TestClip:
    def test_global_norm_scaling(self):
        a = make_param([3.0])
        b = make_param([4.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        buffer = a.grad
        norm = clip_grad_norm([("a", a), ("b", b)], max_norm=1.0)
        assert norm == 5.0 and a.grad is buffer
        total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_below_threshold_untouched(self):
        a = make_param([1.0])
        a.grad = np.array([0.3])
        clip_grad_norm([("a", a)], max_norm=1.0)
        np.testing.assert_array_equal(a.grad, [0.3])


class TestSchedule:
    def cfg(self, peak=1e-3, floor=1e-5, warmup=10, total=100):
        return dict(peak_lr=peak, min_lr=floor, warmup_steps=warmup, total_steps=total)

    def test_endpoints(self):
        cfg = self.cfg()
        assert cosine_warmup_lr(0, **cfg) == 0.0
        assert cosine_warmup_lr(10, **cfg) == cfg["peak_lr"]
        np.testing.assert_allclose(cosine_warmup_lr(100, **cfg), cfg["min_lr"], atol=1e-20)

    def test_clamps_beyond_horizon(self):
        cfg = self.cfg()
        assert cosine_warmup_lr(1000, **cfg) == cfg["min_lr"]

    def test_continuous_at_warmup_boundary(self):
        cfg = self.cfg(warmup=50, total=200)
        before = cosine_warmup_lr(49, **cfg)
        at = cosine_warmup_lr(50, **cfg)
        assert abs(at - before) < cfg["peak_lr"] / 40

    def test_nonnegative_everywhere(self):
        cfg = self.cfg(floor=0.0)
        values = [cosine_warmup_lr(s, **cfg) for s in range(0, 120)]
        assert min(values) >= 0.0

    def test_validation(self):
        """The schedule's rule, 0 <= min_lr <= peak_lr, is the run config's:
        ``train`` derives warmup_steps < total_steps itself."""
        problems = RunConfig(peak_lr=1e-3, min_lr=1e-2).violations()
        assert problems == ["need 0 <= min_lr <= peak_lr < inf, got 0.01, 0.001"]
        with pytest.raises(ConfigError, match="invalid run config: need 0 <= min_lr"):
            RunConfig(peak_lr=1e-3, min_lr=-1e-6).validate()
        assert RunConfig(peak_lr=1e-3, min_lr=1e-3).violations() == []


class TestAccumulationEquivalence:
    """Micro-batch gradient averaging matches one large batch."""

    @staticmethod
    def ce_loss(w: Tensor, x: np.ndarray, labels: np.ndarray) -> Tensor:
        logits = T.matmul(Tensor(x), w)
        logp = T.log_softmax(logits, axis=1)
        picked = T.take_rows(logp, (np.arange(len(labels)), labels))
        return T.mul(T.sum_(T.mul(picked, -1.0)), 1.0 / len(labels))

    def run_steps(self, micro_batches, lr=0.05):
        w = Tensor(np.linspace(-0.5, 0.5, 6).reshape(3, 2), requires_grad=True)
        opt = AdamW([("w", w)], weight_decay=0.0)
        for x, labels in micro_batches:
            with Tape() as tape:
                loss = self.ce_loss(w, x, labels)
            tape.backward(loss)
        if len(micro_batches) > 1:
            w.grad = w.grad / len(micro_batches)
        opt.step(lr)
        return w.data

    def test_two_identical_micros_match_doubled_batch(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((4, 3))
        labels = np.array([0, 1, 1, 0])
        micro = self.run_steps([(x, labels), (x, labels)])
        doubled = self.run_steps([(np.concatenate([x, x]), np.concatenate([labels, labels]))])
        np.testing.assert_allclose(micro, doubled, atol=1e-9)

    def test_averaging_keeps_step_magnitude(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((4, 3))
        labels = np.array([1, 0, 1, 0])
        single = self.run_steps([(x, labels)])
        for k in (2, 4):
            repeated = self.run_steps([(x, labels)] * k)
            np.testing.assert_allclose(repeated, single, atol=1e-12)

    def test_distinct_micros_match_concatenated_batch(self):
        gen = np.random.default_rng(4)
        xa, xb = gen.standard_normal((4, 3)), gen.standard_normal((4, 3))
        la, lb = np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0])
        micro = self.run_steps([(xa, la), (xb, lb)])
        joint = self.run_steps([(np.concatenate([xa, xb]), np.concatenate([la, lb]))])
        np.testing.assert_allclose(micro, joint, atol=1e-9)
