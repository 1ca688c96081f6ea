"""Adam/AdamW with decoupled weight decay, a cosine-annealed learning-rate
schedule with linear warmup, and global-norm gradient clipping;
``RunConfig`` validated the settings.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .tensor import Tensor


CHUNK = 1 << 15  # elements per pass of the update; 16-64 Ki ran fastest at paper scale


class AdamW:
    """Decoupled weight decay Adam; decay 0 reduces to plain Adam bitwise.

    Update per parameter: m and v are exponential moment averages of the
    gradient and its square, bias-corrected, then
    ``p -= lr * m_hat / (sqrt(v_hat) + eps) + lr * weight_decay * p``.
    ``params`` are (name, Tensor) pairs, as ``EncoderModel.parameters()``
    and ``named_tensors`` give them; the names appear in diagnostics.

    The optimizer adopts its parameters into one flat float64 arena,
    ``data``, in ``params`` order (``offsets`` bound the segments): each
    ``p.data`` becomes a view of its segment and each ``p.grad`` a view of
    the same segment of ``grad``; the moments ``m`` and ``v`` share the
    layout.  A rebound ``p.data`` makes ``step`` raise ContractError.
    ``step`` walks the arenas in ``CHUNK``-element passes through two
    chunk-sized scratch buffers, each element through the same correctly
    rounded operations as the formula, so no result bit changes.
    """

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 5e-6, weight_decay: float = 0.0):
        self.params: list[tuple[str, Tensor]] = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.offsets = np.cumsum([0] + [p.size for _, p in self.params])
        self.data, self.grad, self.m, self.v = (np.zeros(self.offsets[-1]) for _ in range(4))
        self._views = []  # per parameter: its data and gradient segments
        for (_, p), lo, hi in zip(self.params, self.offsets, self.offsets[1:]):
            data, grad = (arena[lo:hi].reshape(p.shape) for arena in (self.data, self.grad))
            data[...] = p.data
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            self._views.append((data, grad))
        self._scratch = np.empty((2, CHUNK))

    def step(self, lr: float) -> None:
        """One update from the gradient arena, after copying in each
        ``.grad`` assigned from outside (None as zeros: the moments of a
        parameter with no gradient keep decaying).  A non-finite gradient
        anywhere aborts the step before any state changes."""
        for (name, p), (data, grad) in zip(self.params, self._views):
            if p.data is not data:
                raise ContractError(f"{name}.data was rebound after AdamW adopted it; "
                                    f"update it in place")
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
                p.grad = grad
        finite = np.isfinite(self.grad)
        if not finite.all():  # argmin: the first non-finite element
            name = self.params[np.searchsorted(self.offsets, finite.argmin(), side="right") - 1][0]
            raise NumericError(f"non-finite gradient for {name}; step {self.t + 1} aborted")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for lo in range(0, self.data.size, CHUNK):
            self._update(*(a[lo:lo + CHUNK] for a in (self.data, self.m, self.v, self.grad)),
                         lr, bc1, bc2)

    def _update(self, w, m, v, g, lr: float, bc1: float, bc2: float) -> None:
        update, tmp = self._scratch[:, :w.size]
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=tmp)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.multiply(lr, np.divide(m, bc1, out=update), out=update)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        update /= np.add(tmp, self.eps, out=tmp)
        if self.weight_decay:
            update += np.multiply(lr * self.weight_decay, w, out=tmp)
        w -= update

    def zero_grad(self) -> None:
        """Zero the gradient arena and point every ``.grad`` back at its
        segment, where the tape's backward adds the next gradients."""
        self.grad.fill(0.0)
        for (_, p), (_, grad) in zip(self.params, self._views):
            p.grad = grad


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
            p.grad *= scale
    return norm


def cosine_warmup_lr(step: int, peak_lr: float, min_lr: float, warmup_steps: int,
                     total_steps: int) -> float:
    """Linear warmup 0 -> peak_lr, a half-cosine to min_lr at total_steps, then min_lr."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if step < warmup_steps:
        return peak_lr * step / warmup_steps
    if step >= total_steps:
        return min_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return min_lr + (peak_lr - min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))

