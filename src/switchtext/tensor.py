"""Dense float64 tensors with reverse-mode automatic differentiation.

The recording model is a Wengert list ("tape"): while a :class:`Tape` is
active, every differentiable operation appends one node holding the ids of
its tracked inputs and a local backward rule.  Nodes are appended in
execution order, so the list is already topologically sorted and
``Tape.backward`` is a single reverse sweep that visits each node exactly
once, accumulating gradients additively across fan-out.

With no tape active, operations compute plain numpy results and record
nothing, which is the inference path.  Tapes are single-threaded; a tensor
that is not being recorded is immutable from the library's point of view
and safe to share across threads for read-only use.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

_tape_counter = itertools.count(1)
_ACTIVE_TAPES: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


class Tensor:
    """N-dimensional float64 array, optionally tracked on a tape.

    ``node_id`` is the tensor's handle on the tape identified by
    ``_tape_id``; it is reassigned whenever the tensor joins a new tape.
    A tensor with ``requires_grad=False`` never receives a gradient buffer.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ContractError("tensors must be non-empty (every extent >= 1)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node_id: int | None = None
        self._tape_id: int = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar; implementations live at module level.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of operations for one forward/backward pass.

    Used as a context manager::

        with Tape() as tape:
            loss = build_loss(...)
        tape.backward(loss)

    ``backward`` accumulates into ``tensor.grad`` on every requires-grad
    leaf; a leaf the root does not depend on keeps its old ``grad``.
    """

    def __init__(self):
        self.id = next(_tape_counter)
        self._next_node = itertools.count()
        # Each entry: (output id, tuple of (input id or None, vjp or None)).
        self._nodes: list[tuple[int, tuple]] = []
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.pop()

    def _register(self, t: Tensor, leaf: bool) -> int:
        if t._tape_id != self.id:
            t._tape_id = self.id
            t.node_id = next(self._next_node)
            if leaf:
                self._leaves[t.node_id] = t
        return t.node_id  # type: ignore[return-value]

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or t._tape_id == self.id

    def record(self, out: Tensor, edges: Sequence[tuple[Tensor, Callable | None]]) -> None:
        """Append one node: ``edges`` pairs each input with its vjp (or None)."""
        pairs = []
        for t, vjp in edges:
            if vjp is not None and self.tracks(t):
                was_leaf = t._tape_id != self.id
                pairs.append((self._register(t, leaf=was_leaf and t.requires_grad), vjp))
            else:
                pairs.append((None, None))
        out.requires_grad = True
        self._register(out, leaf=False)
        self._nodes.append((out.node_id, tuple(pairs)))

    def backward(self, root: Tensor) -> None:
        """Reverse sweep from a scalar ``root``; seed gradient is 1.0."""
        if root.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        if root._tape_id != self.id or root.node_id is None:
            raise ContractError("backward root is not recorded on this tape")
        grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
        for out_id, pairs in reversed(self._nodes):
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for inp_id, vjp in pairs:
                if vjp is None:
                    continue
                contrib = vjp(g)
                if inp_id in grads:
                    grads[inp_id] = grads[inp_id] + contrib
                else:
                    grads[inp_id] = contrib
        for nid, g in grads.items():
            leaf = self._leaves.get(nid)
            if leaf is not None and leaf.requires_grad:
                leaf.grad = g if leaf.grad is None else leaf.grad + g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` — the adjoint of numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _maybe_record(out_data: np.ndarray, edges) -> Tensor:
    tape = active_tape()
    out = Tensor(out_data)
    if tape is not None and any(tape.tracks(t) for t, _ in edges):
        tape.record(out, edges)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def relu(x) -> Tensor:
    x = _as_tensor(x)
    keep = x.data > 0
    return _maybe_record(np.where(keep, x.data, 0.0), [(x, lambda g: g * keep)])


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}") from e
    ad, bd = a.data, b.data
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)),
        (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)),
    ])


# ---------------------------------------------------------------------------
# reductions


def _restore_reduced(g: np.ndarray, in_shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(in_shape)), in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(ax % len(in_shape) for ax in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    in_shape = x.data.shape
    return _maybe_record(np.asarray(out), [
        (x, lambda g: _restore_reduced(g, in_shape, axis, keepdims)),
    ])


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    in_shape = x.data.shape
    count = x.data.size if axis is None else np.prod(
        [in_shape[ax % len(in_shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    inv = 1.0 / float(count)
    return _maybe_record(np.asarray(out), [
        (x, lambda g: _restore_reduced(g, in_shape, axis, keepdims) * inv),
    ])


# ---------------------------------------------------------------------------
# normalizations


def layer_norm(x, gamma, beta, epsilon: float) -> Tensor:
    """``gamma * (x - mu) / sqrt(var + epsilon) + beta`` over the last axis,
    with the population variance, recorded as one node.

    The backward rule is the closed form (Ba et al. 2016): with
    ``xhat = (x - mu) * inv`` and ``gh = g * gamma``,
    ``dx = inv * (gh - mean(gh) - xhat * mean(gh * xhat))``; the gamma and
    beta gradients sum ``g * xhat`` and ``g`` over the leading axes.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + epsilon) ** -0.5
    xhat = centered * inv

    def dx(g):
        gh = g * gamma.data
        return inv * (gh - gh.mean(axis=-1, keepdims=True)
                      - xhat * (gh * xhat).mean(axis=-1, keepdims=True))

    return _maybe_record(xhat * gamma.data + beta.data, [
        (x, dx),
        (gamma, lambda g: _unbroadcast(g * xhat, gamma.data.shape)),
        (beta, lambda g: _unbroadcast(g, beta.data.shape)),
    ])


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _maybe_record(y, [
        (x, lambda g: (g - (g * y).sum(axis=axis, keepdims=True)) * y),
    ])


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if not np.isfinite(x.data).all():
        raise NumericError("log_softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _maybe_record(y, [
        (x, lambda g: g - np.exp(y) * g.sum(axis=axis, keepdims=True)),
    ])


# ---------------------------------------------------------------------------
# shape movement


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    in_shape = x.data.shape
    return _maybe_record(x.data.reshape(shape), [(x, lambda g: g.reshape(in_shape))])


def transpose(x, axes: tuple[int, ...] | None = None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(range(x.ndim - 1, -1, -1))
    inverse = tuple(np.argsort(axes))
    return _maybe_record(x.data.transpose(axes), [(x, lambda g: g.transpose(inverse))])


# ---------------------------------------------------------------------------
# gather / scatter


def take_rows(x, indices) -> Tensor:
    """Gather rows of ``x`` along axis 0; ``indices`` may have any shape.

    The backward rule scatter-adds, so repeated indices accumulate, which
    makes this the single primitive behind both embedding lookup and
    token dispatch.
    """
    x = _as_tensor(x)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError(
            f"take_rows index out of range [0, {x.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    in_shape = x.data.shape

    def vjp(g):
        z = np.zeros(in_shape)
        np.add.at(z, idx, g)
        return z

    return _maybe_record(x.data[idx], [(x, vjp)])


def scatter_rows(x, indices, num_rows: int) -> Tensor:
    """Place the rows of ``x`` at ``indices`` inside a zero block of
    ``num_rows`` rows.  Indices must be unique."""
    x = _as_tensor(x)
    idx = np.asarray(indices)
    out = np.zeros((num_rows,) + x.data.shape[1:])
    out[idx] = x.data
    return _maybe_record(out, [(x, lambda g: g[idx])])


def pick(x, rows, cols) -> Tensor:
    """Select entries ``x[rows[i], cols[i]]`` of a 2-D tensor, returning 1-D."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"pick needs a 2-D tensor, got shape {x.shape}")
    r = np.asarray(rows)
    c = np.asarray(cols)
    in_shape = x.data.shape

    def vjp(g):
        z = np.zeros(in_shape)
        np.add.at(z, (r, c), g)
        return z

    return _maybe_record(x.data[r, c], [(x, vjp)])


# ---------------------------------------------------------------------------
# dropout


def dropout(x, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout recorded with its mask so backward is exact.

    Identity (the same object) at rate 0 or outside training.  Masks come
    from the caller's generator so a seeded run is reproducible.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    scale = 1.0 / (1.0 - rate)
    mask = (rng.random(x.shape) >= rate) * scale
    return _maybe_record(x.data * mask, [(x, lambda g: g * mask)])


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare the tape gradient of ``f`` at ``x`` against central differences.

    Returns the max relative error over the elements of ``x`` with
    denominator ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if h <= 0:
        raise ConfigError(f"step size must be positive, got {h}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(x.data)
    flat_num = numeric.reshape(-1)
    base = x.data.copy()
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += h
        hi = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] -= 2 * h
        lo = f(Tensor(bumped.reshape(base.shape))).item()
        flat_num[i] = (hi - lo) / (2.0 * h)

    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise NumericError("finite-difference comparison produced non-finite values")
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
