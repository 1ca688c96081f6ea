"""Scaled dot-product attention, multi-head self-attention, and the
position-wise feed-forward block.

Tokens arrive packed as ``[N, d]`` rows, the real tokens of a batch in its
``[batch, len]`` padding mask's row-major order.  Only self-attention lays
them out on the padded grid, for the scores.  Padding is handled with a
large negative additive bias on masked key positions, which drives their
softmax weight to exactly zero in float64 while keeping every softmax input
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .layers import LinearParams, init_weight, linear, pack, unpack
from .tensor import Tensor

MASK_BIAS = -1e30


@dataclass
class MultiHeadParams:
    """Query, key and value projections, each [d_model, d_model] with head h
    in columns h*d_k:(h+1)*d_k (d_k = d_model / num_heads), and the output
    map."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: LinearParams
    num_heads: int

    @staticmethod
    def create(d_model: int, num_heads: int, rng: np.random.Generator | None) -> "MultiHeadParams":
        if d_model % num_heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by num_heads {num_heads}")
        d_k = d_model // num_heads
        # Each head's q, k and v blocks are drawn in turn at Glorot scale for
        # fan_out d_k; this draw order fixes the values a seed gives.
        draws = [[init_weight(d_model, d_k, rng).data for _ in range(3)]
                 for _ in range(num_heads)]
        wq, wk, wv = (Tensor(np.concatenate([head[i] for head in draws], axis=1),
                             requires_grad=True) for i in range(3))
        return MultiHeadParams(wq=wq, wk=wk, wv=wv,
                               wo=LinearParams.create(d_model, d_model, rng), num_heads=num_heads)


@dataclass
class FfnParams:
    """Two affine maps with a ReLU between, applied per position."""

    lin1: LinearParams
    lin2: LinearParams

    @staticmethod
    def create(d_model: int, d_ff: int, rng: np.random.Generator | None) -> "FfnParams":
        return FfnParams(
            lin1=LinearParams.create(d_model, d_ff, rng),
            lin2=LinearParams.create(d_ff, d_model, rng),
        )


def _key_bias(pad_mask: np.ndarray, scores_ndim: int) -> np.ndarray:
    """Additive bias over key positions: 0 where real, MASK_BIAS where padded.
    Expanded to ``scores_ndim`` so leading batch axes stay aligned."""
    mask = np.asarray(pad_mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ContractError("attention requires at least one unmasked key per sequence")
    bias = np.where(mask, 0.0, MASK_BIAS)
    while bias.ndim < scores_ndim:
        bias = np.expand_dims(bias, -2)
    return bias


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor, pad_mask=None) -> Tensor:
    """softmax(q kᵀ / sqrt(d_k) + key bias) v, one ``T.attention`` node.

    ``pad_mask`` is a boolean array marking real key positions; its shape is
    the key extent with any leading batch axes of q/k/v.  Masked keys get
    attention weight exactly 0; rows over unmasked keys sum to 1.
    """
    return T.attention(q, k, v, None if pad_mask is None else _key_bias(pad_mask, q.ndim))


def multi_head_attention(h: Tensor, p: MultiHeadParams, pad_mask: np.ndarray) -> Tensor:
    """Self-attention over packed rows ``h`` [N, d_model], the real tokens of
    the [batch, len] ``pad_mask`` in its row-major order; returns [N, d_model].

    The projections are laid out as [batch, heads, len, d_k], zero at padded
    positions, for one stacked attention call, and the real rows of its
    result are gathered before the output map.
    """
    if pad_mask.ndim != 2 or h.ndim != 2 or h.shape[0] != pad_mask.sum():
        raise DimensionError(f"attention expects a [batch, len] mask and one row per real "
                             f"token, got mask {pad_mask.shape} and rows {h.shape}")
    batch, seq_len = pad_mask.shape
    num_heads = p.num_heads
    d_k = p.wq.shape[1] // num_heads
    grid = (batch, seq_len, num_heads, d_k)
    perm = (0, 2, 1, 3)  # self-inverse

    def heads(t: Tensor) -> Tensor:
        return T.transpose(T.reshape(unpack(t, pad_mask), grid), perm)

    out = scaled_dot_product_attention(
        heads(T.matmul(h, p.wq)), heads(T.matmul(h, p.wk)), heads(T.matmul(h, p.wv)), pad_mask)
    rows = T.reshape(T.transpose(out, perm), (batch * seq_len, num_heads * d_k))
    return linear(pack(rows, pad_mask), p.wo)


def position_wise_ffn(x: Tensor, p: FfnParams, sizes=None) -> Tensor:
    """ReLU(x W1 + b1) W2 + b2, independently at every position.  With
    ``sizes`` the maps are stacked, one per group of rows (see ``linear``)."""
    return linear(T.relu(linear(x, p.lin1, sizes)), p.lin2, sizes)
