"""Adam/AdamW with decoupled weight decay, a cosine-annealed learning-rate
schedule with linear warmup, global-norm gradient clipping, and early
stopping with best-checkpoint bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor


class AdamW:
    """Decoupled weight decay Adam; decay 0 reduces to plain Adam bitwise.

    Update per parameter: m and v are exponential moment averages of the
    gradient and its square, bias-corrected, then
    ``p -= lr * m_hat / (sqrt(v_hat) + eps) + lr * weight_decay * p``.
    ``params`` are (name, Tensor) pairs, as ``EncoderModel.parameters()``
    and ``named_tensors`` give them; the names appear in diagnostics.
    """

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 5e-6, weight_decay: float = 0.0):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.params: list[tuple[str, Tensor]] = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros(p.shape) for _, p in self.params]
        self.v = [np.zeros(p.shape) for _, p in self.params]

    def step(self, lr: float) -> None:
        """One update from the gradients accumulated in each param's .grad.
        Parameters with no gradient this step keep their moments decaying.
        A non-finite gradient anywhere aborts the step before any state
        changes."""
        for name, p in self.params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for {name}; step {self.t + 1} aborted")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (_, p), m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + lr * self.weight_decay * p.data
            p.data = p.data - update

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale the gradients of the (name, Tensor) pairs ``params`` so their
    global L2 norm is at most ``max_norm``.  Returns the pre-clip norm."""
    total = 0.0
    grads = []
    for _, p in params:
        if p.grad is not None:
            grads.append(p)
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in grads:
            p.grad = p.grad * scale
    return norm


@dataclass
class ScheduleConfig:
    peak_lr: float = 3e-4
    min_lr: float = 1e-6
    warmup_steps: int = 0
    total_steps: int = 1

    def __post_init__(self):
        if not 0.0 <= self.min_lr <= self.peak_lr:
            raise ConfigError(f"need 0 <= min_lr <= peak_lr, got {self.min_lr}, {self.peak_lr}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"need 0 <= warmup_steps < total_steps, got {self.warmup_steps}, {self.total_steps}"
            )


def cosine_warmup_lr(step: int, cfg: ScheduleConfig) -> float:
    """Linear ramp 0 -> peak over the warmup, then a half-cosine from peak to
    min over the remaining steps; clamps to min beyond the horizon."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if step < cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    if step >= cfg.total_steps:
        return cfg.min_lr
    progress = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.min_lr + (cfg.peak_lr - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


class EarlyStopping:
    """Stop when the monitored metric fails to improve by ``min_delta`` for
    ``patience`` consecutive epochs; remembers the best epoch so the caller
    can restore its checkpoint."""

    def __init__(self, patience: int = 10, min_delta: float = 1e-4, mode: str = "min"):
        if mode not in ("min", "max"):
            raise ConfigError(f"mode must be 'min' or 'max', got {mode!r}")
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = min_delta
        self.mode = mode
        self.best_metric: float | None = None
        self.best_epoch: int | None = None
        self.epochs_since_best = 0

    def _improved(self, metric: float) -> bool:
        if self.best_metric is None:
            return True
        if self.mode == "min":
            return metric < self.best_metric - self.min_delta
        return metric > self.best_metric + self.min_delta

    def update(self, metric: float, epoch: int) -> bool:
        """Record an epoch's metric; returns True when training should stop.
        Improvement resets the counter and marks the epoch as best."""
        if not math.isfinite(metric):
            raise NumericError(f"early-stopping metric is not finite: {metric}")
        if self._improved(metric):
            self.best_metric = metric
            self.best_epoch = epoch
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience
