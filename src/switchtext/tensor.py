"""Dense float64 tensors with reverse-mode automatic differentiation.

The recording model is a Wengert list ("tape"): while a :class:`Tape` is
active, every differentiable operation appends one node holding the ids of
its tracked inputs and a local backward rule.  Nodes are appended in
execution order, so the list is already topologically sorted and
``Tape.backward`` is a single reverse sweep that visits each node exactly
once, accumulating gradients additively across fan-out.  The sweep consumes
the tape: it drops each node's backward rules, and the arrays they saved,
as soon as they have run, and adds leaf gradients into ``.grad`` in place.

Sequences travel as packed [N, d] rows plus a ``lengths`` vector: sequence
i is the next ``lengths[i]`` rows.  ``attention`` (from [N, 3d]
query-key-value rows, through head-major [heads, N, d_k] views) and
``segment_sum`` view each run of consecutive equal-length sequences as one
unpadded block of its rows, so no padded position is read.  ``linear``
records an affine map and ``ffn`` a position-wise feed-forward block as one
node each, with bias and ReLU applied in place.  ``routed_ffn`` is top-1
routed experts as one node: from the gate probabilities and a capacity it
picks each token's expert and the served tokens, runs the stacked experts
as row groups, scales each row by its gate probability and writes it back
in token order.  ``take_rows`` is the one gather: embedding lookup and
picking entries; its backward is one flat ``np.add.at``.

With no tape active, operations compute plain numpy results and return
before they build any backward rule or cache, which is the inference path.
Tapes are single-threaded; a tensor that is not being recorded is immutable
from the library's point of view and safe to share across threads for
read-only use.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

_tape_counter = itertools.count(1)
_ACTIVE_TAPES: list["Tape"] = []


class Tensor:
    """N-dimensional float64 array, optionally tracked on a tape.

    ``node_id`` is the tensor's handle on the tape identified by
    ``_tape_id``; it is reassigned whenever the tensor joins a new tape.
    ``requires_grad`` marks a leaf that wants a gradient; op outputs never
    set it, so an output of one pass is no leaf of a later tape.  A tensor
    with ``requires_grad=False`` never receives a gradient buffer.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_tape_id")

    def __init__(self, data, requires_grad: bool = False):
        is_float64 = type(data) is np.ndarray and data.dtype == np.float64
        arr = data if is_float64 else np.asarray(data, dtype=np.float64)
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

    ``backward`` adds into ``tensor.grad`` on every requires-grad leaf, in
    place once the leaf owns its buffer; a leaf the root does not depend on
    keeps its old ``grad``.  With ``wrt`` given, only those tensors are
    leaves: operations on other requires-grad tensors alone record nothing,
    and their gradients are neither computed nor stored.
    """

    def __init__(self, wrt: Sequence[Tensor] | None = None):
        self.id = next(_tape_counter)
        self._next_node = itertools.count()
        # Each entry: (output id, tuple of (input id or None, vjp or None)),
        # replaced by None once ``backward`` has swept it.
        self._nodes: list[tuple[int, tuple] | None] = []
        self._leaves: dict[int, Tensor] = {}
        self._wrt = None if wrt is None else {id(t): t for t in wrt}
        self._swept = False

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
        return t._tape_id == self.id or (t.requires_grad
                                         and (self._wrt is None or id(t) in self._wrt))

    def record(self, out: Tensor, edges: Sequence[tuple[Tensor, Callable | None]]) -> None:
        """Append one node: ``edges`` pairs each input with its vjp (or None)."""
        pairs = []
        for t, vjp in edges:
            if vjp is not None and self.tracks(t):
                pairs.append((self._register(t, leaf=t._tape_id != self.id), vjp))
            else:
                pairs.append((None, None))
        self._register(out, leaf=False)
        self._nodes.append((out.node_id, tuple(pairs)))

    def backward(self, root: Tensor) -> None:
        """Reverse sweep from a scalar ``root``; seed gradient is 1.0.

        The sweep consumes the tape, so a second call raises.  Each node is
        released once its vjps have run, and each leaf contribution goes
        straight into the leaf's ``grad``: the first is kept (copied when it
        may share memory with another gradient), later ones are added in
        place, in sweep order.
        """
        if root.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        if root._tape_id != self.id or root.node_id is None:
            raise ContractError("backward root is not recorded on this tape")
        if self._swept:
            raise ContractError("this tape was already swept by backward; record a new pass")
        self._swept = True
        nodes, leaves = self._nodes, self._leaves
        grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
        for i in range(len(nodes) - 1, -1, -1):
            out_id, pairs = nodes[i]
            nodes[i] = None
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for inp_id, vjp in pairs:
                if vjp is None:
                    continue
                contrib = vjp(g)
                leaf = leaves.get(inp_id)
                if leaf is not None:
                    if leaf.grad is not None:
                        leaf.grad += contrib
                    elif contrib is g or contrib.base is not None:
                        leaf.grad = contrib.copy()
                    else:
                        leaf.grad = contrib
                elif inp_id in grads:
                    grads[inp_id] = grads[inp_id] + contrib
                else:
                    grads[inp_id] = contrib
        self._leaves = {}


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
    """The output, recorded on the active tape if it tracks an input.  Ops
    call it only while a tape is active; with none, they return their plain
    result before building any backward state."""
    out = Tensor(out_data)
    tape = _ACTIVE_TAPES[-1]
    if any(tape.tracks(t) for t, _ in edges):
        tape.record(out, edges)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    if not _ACTIVE_TAPES:
        return Tensor(out)
    a_shape, b_shape = a.data.shape, b.data.shape  # all the vjps read, so the operands can go
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    if not _ACTIVE_TAPES:
        return Tensor(out)
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        out = np.matmul(ad, bd)
    except ValueError as e:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}") from e
    if not _ACTIVE_TAPES:
        return Tensor(out)
    return _maybe_record(out, [
        (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)),
        (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)),
    ])


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for [N, d_in] rows, a [d_in, d_out] map and a [d_out]
    bias, one node; the bias is added in place into the product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise DimensionError(f"linear: rows {x.shape}, weight {w.shape}, bias {b.shape} do not fit")
    out = np.matmul(xd, wd)
    out += b.data
    if not _ACTIVE_TAPES:
        return Tensor(out)
    return _maybe_record(out, [
        (x, lambda g: np.matmul(g, wd.T)),
        (w, lambda g: np.matmul(xd.T, g)),
        (b, lambda g: g.sum(axis=0)),
    ])


def _row_groups(xd, stacks, groups):
    """``relu(x @ w1 + b1) @ w2 + b2`` with row group (j, r) of ``xd`` run
    through slice j of the stacked maps ``stacks`` ([G, d, f], [G, f],
    [G, f, d], [G, d]), bias and ReLU in place.  Returns the hidden rows and
    the output rows."""
    w1d, b1d, w2d, b2d = stacks
    h, out = np.empty((len(xd), w1d.shape[-1])), np.empty(xd.shape)
    for j, r in groups:
        np.matmul(xd[r], w1d[j], out=h[r])
        h[r] += b1d[j]
    np.maximum(h, 0.0, out=h)
    for j, r in groups:
        np.matmul(h[r], w2d[j], out=out[r])
        out[r] += b2d[j]
    return h, out


def _row_group_vjps(xd, h, stacks, shapes, groups, out_grad):
    """The vjps of :func:`_row_groups` for its rows and the four maps, of
    ``shapes``, given ``out_grad(g)``: the gradient of its output rows from
    the node's incoming ``g``.  A map slice whose group is empty gets zeros.
    The hidden gradient ``(g @ w2ᵀ) * (h > 0)`` is formed once, when a vjp
    first reads it, so differentiating the rows alone forms no map gradient."""
    w1d, b1d, w2d, b2d = stacks

    def per_group(shape, stack, fill):  # fill(o, j, r) writes group j's share into o
        by_row = stack is None
        grad = np.empty(shape) if by_row or len(groups) == len(stack) else np.zeros(shape)
        slots = grad if by_row else grad.reshape(stack.shape)
        for j, r in groups:
            fill(slots[r] if by_row else slots[j], j, r)
        return grad

    last = [None, None, None]  # (incoming gradient, output-row gradient, hidden gradient)

    def rows(g):
        if last[0] is not g:
            last[:] = g, out_grad(g), None
        return last[1]

    def dh(g):
        gr = rows(g)
        if last[2] is None:
            last[2] = per_group(h.shape, None, lambda o, j, r: np.matmul(gr[r], w2d[j].T, out=o))
            last[2] *= h > 0
        return last[2]

    w1s, b1s, w2s, b2s = shapes
    return [
        lambda g: per_group(xd.shape, None, lambda o, j, r: np.matmul(dh(g)[r], w1d[j].T, out=o)),
        lambda g: per_group(w1s, w1d, lambda o, j, r: np.matmul(xd[r].T, dh(g)[r], out=o)),
        lambda g: per_group(b1s, b1d, lambda o, j, r: np.sum(dh(g)[r], axis=0, out=o)),
        lambda g: per_group(w2s, w2d, lambda o, j, r: np.matmul(h[r].T, rows(g)[r], out=o)),
        lambda g: per_group(b2s, b2d, lambda o, j, r: np.sum(rows(g)[r], axis=0, out=o)),
    ]


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` for [N, d] rows, [d, f] and [f, d]
    maps and [f] and [d] biases, one node; bias and ReLU are applied in
    place."""
    x, *maps = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    shapes = [m.data.shape for m in maps]
    (n, d), f = x.data.shape if x.data.ndim == 2 else (0, 0), shapes[0][-1]
    if x.data.ndim != 2 or shapes != [(d, f), (f,), (f, d), (d,)]:
        raise DimensionError(f"ffn: rows {x.shape} and maps {' '.join(map(str, shapes))} "
                             f"do not fit")
    stacks, groups = [m.data[None] for m in maps], [(0, slice(0, n))]
    h, out = _row_groups(x.data, stacks, groups)
    if not _ACTIVE_TAPES:
        return Tensor(out)
    vjps = _row_group_vjps(x.data, h, stacks, shapes, groups, lambda g: g)
    return _maybe_record(out, list(zip([x, *maps], vjps)))


def routed_ffn(x, w1, b1, w2, b2, probs, capacity) -> Tensor:
    """Top-1 routed experts, one node: token t goes to expert ``j = argmax
    probs[t]`` (ties to the lowest index), and output row t is ``probs[t, j]``
    times expert j's ``relu(x[t] @ w1[j] + b1[j]) @ w2[j] + b2[j]`` if t is
    among expert j's first ``capacity`` tokens, and zero otherwise.

    The maps are stacked, one slice per expert: ``w1`` [E, d, f], ``b1``
    [E, f], ``w2`` [E, f, d] and ``b2`` [E, d]; ``probs`` holds the [T, E]
    gate probabilities, and the routing taken on them is held fixed.  The
    served rows are gathered in stable expert order (by expert, then by
    position), each expert runs on its run of them with bias and ReLU in
    place (an empty expert costs nothing and gets zero map gradients), and
    each result is scaled by its chosen probability and written back in
    token order; a ``capacity`` of T or more ranks no token.  Output and
    gradients are bit for bit those of the gather, the grouped FFN, a
    scatter into zeros and the product with the picked probabilities
    recorded as separate nodes.  With no token served, only ``probs`` is
    differentiated.
    """
    x, probs, *maps = (_as_tensor(t) for t in (x, probs, w1, b1, w2, b2))
    shapes = [m.data.shape for m in maps]
    n, d = x.data.shape if x.data.ndim == 2 else (0, 0)
    E, _, f = shapes[0] if len(shapes[0]) == 3 else (0, 0, 0)
    if (x.data.ndim != 2 or probs.data.shape != (n, E)
            or shapes != [(E, d, f), (E, f), (E, f, d), (E, d)]):
        raise DimensionError(f"routed_ffn: rows {x.shape}, gate probabilities {probs.shape} and "
                             f"maps {' '.join(map(str, shapes))} do not fit")
    if type(capacity) is not int or capacity < 0:
        raise ContractError(f"routed_ffn: capacity must be an int >= 0, got {capacity!r}")
    chosen = probs.data.argmax(axis=1)
    kept = np.argsort(chosen, kind="stable")
    sizes = np.bincount(chosen, minlength=E)
    if capacity < n:  # each expert keeps its first ``capacity`` tokens
        rank = np.arange(n) - (np.cumsum(sizes) - sizes)[chosen[kept]]
        kept, sizes = kept[rank < capacity], np.minimum(sizes, capacity)
    pick = probs.data[np.arange(n), chosen][:, None]
    groups = [(j, slice(end - size, end)) for j, (size, end)
              in enumerate(zip(sizes.tolist(), itertools.accumulate(sizes.tolist()))) if size]
    stacks = [m.data for m in maps]
    combined = np.zeros((n, d))
    if groups:
        xd = x.data[kept]
        h, served = _row_groups(xd, stacks, groups)
        combined[kept] = served
    out = combined * pick
    if not _ACTIVE_TAPES:
        return Tensor(out)

    def d_probs(g):
        grad = np.zeros((n, E))
        grad[np.arange(n), chosen] = _unbroadcast(g * combined, (n, 1))[:, 0]
        return grad

    if not groups:
        return _maybe_record(out, [(probs, d_probs)])
    d_x, *d_maps = _row_group_vjps(xd, h, stacks, shapes, groups, lambda g: (g * pick)[kept])

    def d_rows(g):
        grad = np.zeros((n, d))
        grad[kept] = d_x(g)
        return grad

    return _maybe_record(out, [(x, d_rows), (probs, d_probs), *zip(maps, d_maps)])


# ---------------------------------------------------------------------------
# reductions


def sum_(x) -> Tensor:
    """The sum of every element, a scalar."""
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())
    if not _ACTIVE_TAPES:
        return Tensor(out)
    in_shape = x.data.shape
    return _maybe_record(out, [(x, lambda g: np.broadcast_to(g, in_shape))])


def mean(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.mean(axis=axis))
    if not _ACTIVE_TAPES:
        return Tensor(out)
    in_shape = x.data.shape
    inv = 1.0 / float(x.data.size // out.size)
    return _maybe_record(out, [
        (x, lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                      in_shape) * inv),
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
    d = x.data.shape[-1]  # means are sums over d, bit for bit what np.mean gives
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    inv = ((xhat * xhat).sum(axis=-1, keepdims=True) / d + epsilon) ** -0.5
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    if not _ACTIVE_TAPES:
        return Tensor(out)

    def dx(g):
        gh = g * gamma.data
        return inv * (gh - gh.sum(axis=-1, keepdims=True) / d
                      - xhat * ((gh * xhat).sum(axis=-1, keepdims=True) / d))

    return _maybe_record(out, [
        (x, dx),
        (gamma, lambda g: _unbroadcast(g * xhat, gamma.data.shape)),
        (beta, lambda g: _unbroadcast(g, beta.data.shape)),
    ])


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = _as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {x.shape}")
    y = _softmax_in_place(x.data.copy(), axis)
    if not _ACTIVE_TAPES:
        return Tensor(y)
    return _maybe_record(y, [
        (x, lambda g: (g - (g * y).sum(axis=axis, keepdims=True)) * y),
    ])


def _softmax_in_place(y: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite ``y`` with its softmax along ``axis``.  In place, so score-sized
    temporaries do not make the C heap shrink and re-fault on every batch."""
    if not np.isfinite(y).all():
        raise NumericError("softmax input contains non-finite values")
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if not np.isfinite(x.data).all():
        raise NumericError("log_softmax input contains non-finite values")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if not _ACTIVE_TAPES:
        return Tensor(y)
    return _maybe_record(y, [
        (x, lambda g: g - np.exp(y) * g.sum(axis=axis, keepdims=True)),
    ])


def _runs(lengths, rows: int) -> list[tuple[slice, int, int]]:
    """(row slice, count, length) of each run of consecutive equal lengths in
    ``lengths``, which must be ints >= 1 summing to the ``rows`` packed rows."""
    lengths = np.asarray(lengths)
    values = lengths.tolist()  # Python ints: cheaper to check and group at batch 1
    if (lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not values
            or min(values) < 1 or sum(values) != rows):
        raise ContractError(f"lengths {values} must be ints giving each sequence at least one "
                            f"real token and the {rows} packed rows one per real token")
    runs, end = [], 0
    for length, run in itertools.groupby(values):
        count = len(list(run))
        runs.append((slice(end, end + count * length), count, length))
        end += count * length
    return runs


def attention(qkv, lengths, num_heads: int) -> Tensor:
    """Multi-head self-attention from packed [N, 3d] query-key-value rows to
    packed [N, d] rows, one node.

    Sequence i is the next ``lengths[i]`` rows.  Columns 0:d of a row hold
    its query, d:2d its key and 2d:3d its value, head h in columns
    h*d_k:(h+1)*d_k of each part.  Each part is viewed head-major,
    [heads, N, d_k]: a run of one sequence of length L is one
    [heads, L, d_k] slice, and a run of n equal-length sequences an
    [n, heads, L, d_k] grid, for ``P v`` with ``P = softmax(q kᵀ / sqrt(d_k))``.
    No padded key is read, a sequence's output and gradients are bit for bit
    those it has alone, and products go straight into such views of their
    packed output.  Closed-form backward: with ``dP = g vᵀ``,
    ``dS = (dP - sum(dP * P)) * P / sqrt(d_k)`` gives ``dq = dS k``,
    ``dk = dSᵀ q`` and ``dv = Pᵀ g``, written into the parts of one
    [N, 3d] gradient.
    """
    qkv = _as_tensor(qkv)
    shape = qkv.data.shape
    if len(shape) != 2 or num_heads < 1 or shape[1] % (3 * num_heads):
        raise DimensionError(f"attention needs [N, 3d] query-key-value rows with d divisible by "
                             f"{num_heads} heads, got {qkv.shape}")
    rows, width = shape[0], shape[1] // 3
    d_k = width // num_heads
    scale = 1.0 / np.sqrt(d_k)
    spans = _runs(lengths, rows)

    def heads(a):  # packed [N, parts * d] rows -> per part, its [heads, N, d_k] view per run
        return [[p[:, r] if n == 1 else p[:, r].reshape(num_heads, n, length, d_k).swapaxes(0, 1)
                 for r, n, length in spans]
                for p in a.reshape(rows, -1, num_heads, d_k).transpose(1, 2, 0, 3)]

    qs, ks, vs = heads(qkv.data)
    ps = []  # per run: P
    for qd, kd in zip(qs, ks):
        probs = np.matmul(qd, kd.swapaxes(-1, -2))
        probs *= scale
        ps.append(_softmax_in_place(probs, -1))
    out = np.empty((rows, width))
    for o, probs, vd in zip(heads(out)[0], ps, vs):
        np.matmul(probs, vd, out=o)
    if not _ACTIVE_TAPES:
        return Tensor(out)

    def vjp(g):
        grad = np.empty(shape)
        for g_run, qd, kd, vd, probs, dq, dk, dv in zip(heads(g)[0], qs, ks, vs, ps, *heads(grad)):
            ds = np.matmul(g_run, vd.swapaxes(-1, -2))
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= scale
            np.matmul(ds, kd, out=dq)
            np.matmul(ds.swapaxes(-1, -2), qd, out=dk)
            np.matmul(probs.swapaxes(-1, -2), g_run, out=dv)
        return grad

    return _maybe_record(out, [(qkv, vjp)])


# ---------------------------------------------------------------------------
# gather and segment sums


def take_rows(x, index) -> Tensor:
    """``x[index]`` for an int array ``index`` of any shape (rows of axis 0),
    or a tuple of int arrays, one per leading axis (e.g. the entries
    ``x[rows, cols]`` of a matrix).  Each index array is checked against its
    axis.

    The backward rule scatters into zeros through ``np.add.at`` on the flat
    elements, so repeated positions accumulate in index order.  Flat,
    ``np.add.at`` takes numpy's one-dimensional fast path, several times
    faster than row by row, and its cost does not grow with how often a
    position repeats.
    This is the one gather: embedding lookup and picking entries.
    """
    x = _as_tensor(x)
    many = isinstance(index, tuple)
    idx = tuple(np.asarray(i) for i in index) if many else (np.asarray(index),)
    axes = x.data.shape[:len(idx)]
    try:  # the flat positions; raises on an index outside its axis
        slots = np.ravel_multi_index(idx, axes)
    except ValueError as e:
        ranges = ", ".join(f"[{i.min()}, {i.max()}] on axis {k}" for k, i in enumerate(idx) if i.size)
        raise ContractError(f"take_rows index out of range: {len(idx)} index arrays spanning "
                            f"{ranges} for the leading axes of shape {x.shape}") from e
    key = idx if many else idx[0]
    out = x.data[key]
    if not _ACTIVE_TAPES:
        return Tensor(out)
    in_shape = x.data.shape

    def scatter(g):
        z = np.zeros(in_shape)
        width = z.size // int(np.prod(axes))
        elements = slots.reshape(-1, 1) * width + np.arange(width)
        np.add.at(z.reshape(-1), elements.reshape(-1), g.reshape(-1))
        return z

    return _maybe_record(out, [(x, scatter)])


def segment_sum(x, lengths) -> Tensor:
    """[batch, d] sums of the packed [N, d] rows ``x``, sequence i summing the
    next ``lengths[i]`` rows, one run of equal lengths at a time as an
    [n, L, d] view: row by row, as a sum over the zero-padded grid rounds."""
    x = _as_tensor(x)
    out = np.concatenate([x.data[r].reshape(count, length, -1).sum(axis=1)
                          for r, count, length in _runs(lengths, len(x.data))])
    if not _ACTIVE_TAPES:
        return Tensor(out)
    return _maybe_record(out, [(x, lambda g: np.repeat(g, lengths, axis=0))])


# ---------------------------------------------------------------------------
# dropout


def dropout(x, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout recorded with its boolean keep-mask so backward is exact.

    Identity (the same object) at rate 0 or outside training.  Masks come
    from the caller's generator, one uniform per element of ``x`` in
    row-major order, so a seeded run is reproducible.  The rate check stays:
    a ``model.config`` edited after the build reaches it unvalidated."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    scale = 1.0 / (1.0 - rate)
    keep = rng.random(x.data.shape) >= rate  # one byte per element; ``keep * scale`` is the float mask
    out = x.data * (keep * scale)
    if not _ACTIVE_TAPES:
        return Tensor(out)
    return _maybe_record(out, [(x, lambda g: g * (keep * scale))])


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
    with Tape(wrt=[probe]) as tape:
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
