"""Parameterized primitive layers: affine maps, layer normalization,
token + learned-position embeddings, and Glorot-normal initialization.

Parameter containers are plain dataclasses of tensors, which
``named_tensors`` walks to name every parameter.  The functional ops below
apply tape primitives to a container's tensors; layer normalization is a
single primitive whose backward rule is the closed form, not a composite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .tensor import Tensor

PAD_ID = 0
UNK_ID = 1


def glorot_std(fan_in: int, fan_out: int) -> float:
    """Standard deviation of the Glorot-normal law: sqrt(2/(fan_in+fan_out))."""
    return float(np.sqrt(2.0 / (fan_in + fan_out)))


def glorot_normal(fan_in: int, fan_out: int, seed) -> Tensor:
    """Draw a ``fan_in x fan_out`` weight matrix from N(0, 2/(fan_in+fan_out)).

    ``seed`` may be an integer (bit-identical draws per seed) or an already
    constructed ``numpy.random.Generator`` that advances across calls.
    """
    if fan_in < 1 or fan_out < 1:
        raise ConfigError(f"fan extents must be >= 1, got {fan_in}, {fan_out}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = rng.normal(0.0, glorot_std(fan_in, fan_out), size=(fan_in, fan_out))
    return Tensor(draws, requires_grad=True)


@dataclass
class LinearParams:
    """Affine map ``x @ weight + bias`` with weight of shape [in, out]."""

    weight: Tensor
    bias: Tensor

    @staticmethod
    def create(fan_in: int, fan_out: int, rng: np.random.Generator) -> "LinearParams":
        return LinearParams(
            weight=glorot_normal(fan_in, fan_out, rng),
            bias=Tensor(np.zeros(fan_out), requires_grad=True),
        )


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    epsilon: float = 1e-5

    @staticmethod
    def create(dim: int, epsilon: float = 1e-5) -> "LayerNormParams":
        if epsilon <= 0:
            raise ConfigError(f"layer-norm epsilon must be positive, got {epsilon}")
        return LayerNormParams(
            gamma=Tensor(np.ones(dim), requires_grad=True),
            beta=Tensor(np.zeros(dim), requires_grad=True),
            epsilon=epsilon,
        )


@dataclass
class EmbeddingTable:
    """Token embeddings plus a learned positional table of length max_len."""

    table: Tensor
    positional: Tensor

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def max_len(self) -> int:
        return self.positional.shape[0]

    @staticmethod
    def create(vocab_size: int, dim: int, max_len: int, rng: np.random.Generator) -> "EmbeddingTable":
        if vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2 (PAD and UNK), got {vocab_size}")
        return EmbeddingTable(
            table=glorot_normal(vocab_size, dim, rng),
            positional=glorot_normal(max_len, dim, rng),
        )


def named_tensors(node, prefix: str) -> list[tuple[str, Tensor]]:
    """Every tensor under a parameter container as (dotted name, Tensor).

    Walks dataclass fields in declaration order and list items by index, so
    the names follow the container layout, e.g. ``blocks.0.mixer.lin1.weight``.
    Fields holding anything else (epsilons, flags) are not parameters.
    """
    if isinstance(node, Tensor):
        return [(prefix, node)]
    if isinstance(node, list):
        children = [(str(i), child) for i, child in enumerate(node)]
    elif is_dataclass(node):
        children = [(f.name, getattr(node, f.name)) for f in fields(node)]
    else:
        return []
    named = []
    for key, child in children:
        named += named_tensors(child, f"{prefix}.{key}")
    return named


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return T.add(T.matmul(x, p.weight), p.bias)


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Per-position normalization over the last axis: gamma*(x-mu)/sqrt(var+eps)+beta.

    The variance is the population (biased) estimate.
    """
    d = p.gamma.shape[0]
    if x.shape[-1] != d:
        raise DimensionError(f"layer_norm expects last extent {d}, got shape {x.shape}")
    return T.layer_norm(x, p.gamma, p.beta, p.epsilon)


def embed(tokens: np.ndarray, table: EmbeddingTable) -> Tensor:
    """Token + positional embedding for id array of shape [len] or [batch, len].

    The gradient of a downstream loss touches only the looked-up rows.
    """
    ids = np.asarray(tokens)
    seq_len = ids.shape[-1]
    if seq_len > table.max_len:
        raise DimensionError(f"sequence length {seq_len} exceeds max_len {table.max_len}")
    if ids.min() < 0 or ids.max() >= table.vocab_size:
        from .errors import VocabularyError

        raise VocabularyError(
            f"token id out of range [0, {table.vocab_size}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    tok = T.take_rows(table.table, ids)
    pos = T.take_rows(table.positional, np.arange(seq_len))
    return T.add(tok, pos)


# Dropout is a tape primitive; exposed here alongside the other layer ops.
dropout = T.dropout
