"""Multi-head self-attention and the position-wise feed-forward block.

Tokens arrive packed as ``[N, d]`` rows with a ``lengths`` vector:
sequence i is the next ``lengths[i]`` rows.  One product maps them to
``[N, 3d]`` query-key-value rows; the ``T.attention`` node views each run of
consecutive equal-length sequences as an unpadded grid for the scores, reads
no padded key, and returns packed ``[N, d]`` rows again.  The output map is
one ``T.linear`` node and the feed-forward block one ``T.ffn`` node, or, for
routed experts, one ``T.routed_ffn`` node that also routes, dispatches and
combines.
The parameters are tensors only; sizes and the head count are arguments the config validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import LinearParams, init_weight, linear
from .tensor import Tensor


@dataclass
class MultiHeadParams:
    """The query, key and value projections as one [d_model, 3 * d_model]
    map, q in columns 0:d, k in d:2d and v in 2d:3d with head h in columns
    h*d_k:(h+1)*d_k of each (d_k = d_model / num_heads), and the output map."""

    wqkv: Tensor
    wo: LinearParams

    @staticmethod
    def create(d_model: int, num_heads: int, rng: np.random.Generator | None) -> "MultiHeadParams":
        # One draw, head by head and within a head q, k, v, each block at the
        # Glorot scale for fan_out d_k; this order fixes the values a seed gives.
        qkv = init_weight((num_heads, 3, d_model, d_model // num_heads), rng).data
        wqkv = Tensor(qkv.transpose(2, 1, 0, 3).reshape(d_model, 3 * d_model), requires_grad=True)
        return MultiHeadParams(wqkv=wqkv, wo=LinearParams.create(d_model, d_model, rng))


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


def multi_head_attention(h: Tensor, p: MultiHeadParams, lengths: np.ndarray,
                         num_heads: int) -> Tensor:
    """Self-attention over packed rows ``h`` [N, d_model], sequence i the next
    ``lengths[i]`` rows, in ``num_heads`` heads; returns [N, d_model]: the
    query-key-value projection, one ``T.attention`` node and the output map."""
    return linear(T.attention(T.matmul(h, p.wqkv), lengths, num_heads), p.wo)


def position_wise_ffn(x: Tensor, p: FfnParams, route=()) -> Tensor:
    """ReLU(x W1 + b1) W2 + b2, independently at every position, one
    ``T.ffn`` node.  With ``route`` = (gate probabilities, capacity) the
    maps are stacked experts and the node is ``T.routed_ffn``."""
    maps = (p.lin1.weight, p.lin1.bias, p.lin2.weight, p.lin2.bias)
    return T.routed_ffn(x, *maps, *route) if route else T.ffn(x, *maps)
