"""Parameterized primitive layers: affine maps, layer normalization (with
the one epsilon ``LAYER_NORM_EPS``), token + learned-position embeddings
looked up straight into packed real-token rows, and Glorot-normal
initialization from a caller's generator (``init_weight``).

Parameter containers are dataclasses of tensors and lists only, which
``named_tensors`` walks to name every parameter.  The functional ops below
apply tape primitives to a container's tensors; an affine map and layer
normalization are single primitives whose backward rules are closed forms,
not composites.  Sizes arrive validated: ``ModelConfig.violations`` owns their rules.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, VocabularyError
from .tensor import Tensor

PAD_ID = 0
UNK_ID = 1
LAYER_NORM_EPS = 1e-5


def init_weight(shape: tuple[int, ...], rng: np.random.Generator | None) -> Tensor:
    """A weight of ``shape``, a stack of ``fan_in x fan_out`` maps, drawn from
    the Glorot-normal law N(0, 2/(fan_in+fan_out)) with ``rng``, or with
    ``rng`` None an unfilled one that draws nothing, for a checkpoint load to
    overwrite.  One draw gives the stack the maps drawn one by one would get.
    The fan check stays: public callers reach it without a config."""
    fan_in, fan_out = shape[-2:]
    if fan_in < 1 or fan_out < 1:
        raise ConfigError(f"fan extents must be >= 1, got {fan_in}, {fan_out}")
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    std = float(np.sqrt(2.0 / (fan_in + fan_out)))
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


@dataclass
class LinearParams:
    """Affine map ``x @ weight + bias`` with weight of shape [in, out]."""

    weight: Tensor
    bias: Tensor

    @staticmethod
    def create(fan_in: int, fan_out: int, rng: np.random.Generator | None) -> "LinearParams":
        return LinearParams(
            weight=init_weight((fan_in, fan_out), rng),
            bias=Tensor(np.zeros(fan_out), requires_grad=True),
        )


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    @staticmethod
    def create(dim: int) -> "LayerNormParams":
        return LayerNormParams(gamma=Tensor(np.ones(dim), requires_grad=True),
                               beta=Tensor(np.zeros(dim), requires_grad=True))


@dataclass
class EmbeddingTable:
    """Token embeddings plus a learned positional table of length max_len."""

    table: Tensor
    positional: Tensor

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def max_len(self) -> int:
        return self.positional.shape[0]

    @staticmethod
    def create(vocab_size: int, dim: int, max_len: int,
               rng: np.random.Generator | None) -> "EmbeddingTable":
        return EmbeddingTable(
            table=init_weight((vocab_size, dim), rng),
            positional=init_weight((max_len, dim), rng),
        )


def named_tensors(node, prefix: str) -> list[tuple[str, Tensor]]:
    """Every tensor under a parameter container as (dotted name, Tensor).

    Walks dataclass fields in declaration order and list items by index, so
    the names follow the container layout, e.g. ``blocks.0.mixer.lin1.weight``.
    """
    if isinstance(node, Tensor):
        return [(prefix, node)]
    if isinstance(node, list):
        children = [(str(i), child) for i, child in enumerate(node)]
    else:
        children = [(f.name, getattr(node, f.name)) for f in fields(node)]
    named = []
    for key, child in children:
        named += named_tensors(child, f"{prefix}.{key}")
    return named


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """``x @ weight + bias`` on [N, in] rows, one ``T.linear`` node."""
    return T.linear(x, p.weight, p.bias)


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Per-position normalization over the last axis:
    gamma*(x-mu)/sqrt(var+LAYER_NORM_EPS)+beta.

    The variance is the population (biased) estimate.
    """
    d = p.gamma.shape[0]
    if x.shape[-1] != d:
        raise DimensionError(f"layer_norm expects last extent {d}, got shape {x.shape}")
    return T.layer_norm(x, p.gamma, p.beta, LAYER_NORM_EPS)


def embed(tokens: np.ndarray, lengths: np.ndarray, table: EmbeddingTable) -> Tensor:
    """Token + positional embeddings of the real tokens as packed [N, d] rows.

    ``tokens`` are [batch, len] padded ids, the first ``lengths[i]`` of row i
    real; the rows are those tokens, in order.  Padding is never looked up,
    and a downstream gradient touches only the looked-up rows.
    """
    ids, lengths = np.asarray(tokens), np.asarray(lengths)
    if ids.shape[1] > table.max_len:
        raise DimensionError(f"sequence length {ids.shape[1]} exceeds max_len {table.max_len}")
    real = np.arange(ids.shape[1]) < lengths[:, None]  # the real positions of the grid
    real_ids = ids[real]
    if real_ids.size and (real_ids.min() < 0 or real_ids.max() >= table.vocab_size):
        raise VocabularyError(
            f"token id out of range [0, {table.vocab_size}): "
            f"min={real_ids.min()}, max={real_ids.max()}"
        )
    return T.add(T.take_rows(table.table, real_ids),
                 T.take_rows(table.positional, np.nonzero(real)[1]))


# Dropout is a tape primitive; exposed here alongside the other layer ops.
dropout = T.dropout
