"""Optimizer tests: update-rule oracles, Adam/AdamW equivalence, schedule
endpoints and continuity, accumulation equivalence, early-stop traces."""

import math

import numpy as np
import pytest

from switchtext import AdamW, EarlyStopping, ScheduleConfig, Tensor, cosine_warmup_lr
from switchtext import tensor as T
from switchtext.errors import ConfigError, NumericError
from switchtext.optim import clip_grad_norm
from switchtext.tensor import Tape


def make_param(value):
    p = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    return p


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

        # Textbook Adam, written independently.
        w = values.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            w = w - 0.01 * m_hat / (np.sqrt(v_hat) + 5e-6)
        np.testing.assert_array_equal(p.data, w)

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
        before = ([p.data.copy() for p in params], [m.copy() for m in opt.m],
                  [v.copy() for v in opt.v], opt.t)
        with pytest.raises(NumericError, match="w2"):
            opt.step(lr=0.1)
        assert opt.t == before[3]
        for now, then in zip(([p.data for p in params], opt.m, opt.v), before[:3]):
            for a, b in zip(now, then):
                np.testing.assert_array_equal(a, b)


class TestClip:
    def test_global_norm_scaling(self):
        a = make_param([3.0])
        b = make_param([4.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_grad_norm([("a", a), ("b", b)], max_norm=1.0)
        assert norm == 5.0
        total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_below_threshold_untouched(self):
        a = make_param([1.0])
        a.grad = np.array([0.3])
        clip_grad_norm([("a", a)], max_norm=1.0)
        np.testing.assert_array_equal(a.grad, [0.3])


class TestSchedule:
    def cfg(self, peak=1e-3, floor=1e-5, warmup=10, total=100):
        return ScheduleConfig(peak_lr=peak, min_lr=floor, warmup_steps=warmup, total_steps=total)

    def test_endpoints(self):
        cfg = self.cfg()
        assert cosine_warmup_lr(0, cfg) == 0.0
        assert cosine_warmup_lr(10, cfg) == cfg.peak_lr
        np.testing.assert_allclose(cosine_warmup_lr(100, cfg), cfg.min_lr, atol=1e-20)

    def test_clamps_beyond_horizon(self):
        cfg = self.cfg()
        assert cosine_warmup_lr(1000, cfg) == cfg.min_lr

    def test_continuous_at_warmup_boundary(self):
        cfg = self.cfg(warmup=50, total=200)
        before = cosine_warmup_lr(49, cfg)
        at = cosine_warmup_lr(50, cfg)
        assert abs(at - before) < cfg.peak_lr / 40

    def test_nonnegative_everywhere(self):
        cfg = self.cfg(floor=0.0)
        values = [cosine_warmup_lr(s, cfg) for s in range(0, 120)]
        assert min(values) >= 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(peak_lr=1e-3, min_lr=1e-2, warmup_steps=0, total_steps=10)
        with pytest.raises(ConfigError):
            ScheduleConfig(peak_lr=1e-3, min_lr=0, warmup_steps=10, total_steps=10)


class TestAccumulationEquivalence:
    """Micro-batch gradient averaging matches one large batch."""

    @staticmethod
    def ce_loss(w: Tensor, x: np.ndarray, labels: np.ndarray) -> Tensor:
        logits = T.matmul(Tensor(x), w)
        logp = T.log_softmax(logits, axis=1)
        picked = T.pick(logp, np.arange(len(labels)), labels)
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


class TestEarlyStopping:
    def test_monotonic_improvement_never_stops(self):
        stopper = EarlyStopping(patience=3, min_delta=1e-4, mode="max")
        for epoch, metric in enumerate([0.1, 0.2, 0.3, 0.4, 0.5], start=1):
            assert not stopper.update(metric, epoch)
        assert stopper.best_epoch == 5

    def test_flat_metric_counter_arithmetic(self):
        stopper = EarlyStopping(patience=3, min_delta=1e-4, mode="max")
        decisions = [stopper.update(0.5, epoch) for epoch in range(1, 6)]
        assert decisions == [False, False, False, True, True]
        assert stopper.best_epoch == 1  # stop fires after epoch 4

    def test_trace_walkthrough(self):
        stopper = EarlyStopping(patience=2, min_delta=1e-4, mode="max")
        trace = [0.5, 0.7, 0.6, 0.65, 0.6]
        stops = [stopper.update(m, epoch) for epoch, m in enumerate(trace, start=1)]
        assert stops.index(True) == 3  # stop after epoch 4
        assert stopper.best_epoch == 2  # restore the epoch-2 checkpoint

    def test_min_mode_on_losses(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0, mode="min")
        assert not stopper.update(1.0, 1)
        assert not stopper.update(0.5, 2)
        assert not stopper.update(0.6, 3)
        assert stopper.update(0.7, 4)
        assert stopper.best_epoch == 2

    def test_non_finite_metric_rejected(self):
        with pytest.raises(NumericError):
            EarlyStopping().update(float("nan"), 1)

    def test_invariant_counter_bounded_by_patience(self):
        stopper = EarlyStopping(patience=4, mode="min")
        for epoch in range(1, 20):
            stopped = stopper.update(1.0, epoch)
            assert stopper.epochs_since_best <= stopper.patience
            if stopped:
                break
