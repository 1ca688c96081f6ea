"""Encoder model assembly: embeddings, a stack of encoder blocks (dense FFN
or routed expert mixture), masked pooling, and a two-logit classifier head.

Also home to parameter counting, pooled hidden-state export, and the
deterministic checkpoint container.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .attention import FfnParams, MultiHeadParams, multi_head_attention, position_wise_ffn
from .data import Vocabulary, pad_batch
from .errors import CompatibilityError, ConfigError, ContractError
from .layers import (EmbeddingTable, LayerNormParams, LinearParams, dropout, embed, layer_norm,
                     linear, named_tensors)
from .moe import RoutingRecord, SwitchParams, switch_forward
from .tensor import Tensor

CHECKPOINT_MAGIC = b"SWTCKPT1"
CHECKPOINT_VERSION = 3


@dataclass
class ModelConfig:
    """Architectural and regularization hyperparameters."""

    variant: str = "switch"  # {"dense", "switch"}
    num_layers: int = 4
    num_heads: int = 4
    num_experts: int = 4
    d_model: int = 200
    d_ff: int = 800
    vocab_size: int = 2
    max_len: int = 256
    dropout: float = 0.35
    capacity_factor: float = 1.25
    aux_loss_weight: float = 0.01
    pooling: str = "mean"  # {"mean", "first"}
    num_classes: int = 2
    layer_norm_eps: float = 1e-5
    seed: int = 0

    def violations(self) -> list[str]:
        problems = []
        if self.variant not in ("dense", "switch"):
            problems.append(f"variant must be 'dense' or 'switch', got {self.variant!r}")
        if self.num_layers < 1:
            problems.append(f"num_layers must be >= 1, got {self.num_layers}")
        if self.d_model < 1 or self.num_heads < 1 or self.d_model % self.num_heads != 0:
            problems.append(
                f"d_model ({self.d_model}) must be a positive multiple of num_heads ({self.num_heads})"
            )
        if self.d_ff < self.d_model:
            problems.append(f"d_ff ({self.d_ff}) must be >= d_model ({self.d_model})")
        if self.num_experts < 1:
            problems.append(f"num_experts must be >= 1, got {self.num_experts}")
        if self.vocab_size < 2:
            problems.append(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.max_len < 1:
            problems.append(f"max_len must be >= 1, got {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must be in [0, 1), got {self.dropout}")
        if self.capacity_factor < 1.0:
            problems.append(f"capacity_factor must be >= 1, got {self.capacity_factor}")
        if self.aux_loss_weight < 0.0:
            problems.append(f"aux_loss_weight must be >= 0, got {self.aux_loss_weight}")
        if self.pooling not in ("mean", "first"):
            problems.append(f"pooling must be 'mean' or 'first', got {self.pooling!r}")
        return problems

    def validate(self) -> "ModelConfig":
        problems = self.violations()
        if problems:
            raise ConfigError("invalid model config: " + "; ".join(problems))
        return self


@dataclass
class EncoderBlock:
    mha: MultiHeadParams
    norm1: LayerNormParams
    mixer: FfnParams | SwitchParams  # dense FFN or routed experts
    norm2: LayerNormParams


@dataclass
class ForwardResult:
    logits: Tensor
    hidden: list[Tensor]
    aux_loss: Tensor
    routing: list[RoutingRecord] = field(default_factory=list)


class EncoderModel:
    """Embeddings, ``num_layers`` post-norm encoder blocks, masked pooling,
    and a linear classifier head."""

    def __init__(self, config: ModelConfig, embeddings: EmbeddingTable,
                 blocks: list[EncoderBlock], head: LinearParams):
        self.config = config
        self.embeddings = embeddings
        self.blocks = blocks
        self.head = head
        self.reset_dropout_rng(config.seed)

    @staticmethod
    def build(config: ModelConfig) -> "EncoderModel":
        config.validate()
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        embeddings = EmbeddingTable.create(config.vocab_size, config.d_model, config.max_len, rng)
        blocks = []
        for _ in range(config.num_layers):
            mha = MultiHeadParams.create(config.d_model, config.num_heads, rng)
            if config.variant == "dense":
                mixer: FfnParams | SwitchParams = FfnParams.create(config.d_model, config.d_ff, rng)
            else:
                mixer = SwitchParams.create(
                    config.d_model, config.d_ff, config.num_experts, rng,
                    capacity_factor=config.capacity_factor,
                )
            blocks.append(EncoderBlock(
                mha=mha,
                norm1=LayerNormParams.create(config.d_model, config.layer_norm_eps),
                mixer=mixer,
                norm2=LayerNormParams.create(config.d_model, config.layer_norm_eps),
            ))
        head = LinearParams.create(config.d_model, config.num_classes, rng)
        return EncoderModel(config, embeddings, blocks, head)

    def reset_dropout_rng(self, seed: int) -> None:
        self._dropout_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)).generate_state(4))

    # ------------------------------------------------------------------
    # forward

    def forward(self, token_ids: np.ndarray, pad_mask: np.ndarray, training: bool = False) -> ForwardResult:
        """Run a batch of padded id sequences through the encoder.

        ``token_ids`` and ``pad_mask`` are [batch, len]; the mask marks real
        tokens.  Returns logits [batch, num_classes], post-block hidden
        states for every layer, and the mean auxiliary loss over routed
        layers (0 for the dense variant).
        """
        ids = np.asarray(token_ids)
        if ids.ndim != 2 or ids.shape[0] == 0:
            raise ContractError(f"forward expects a non-empty [batch, len] id array, got {ids.shape}")
        x = embed(ids, self.embeddings)
        return self._encode(x, np.asarray(pad_mask, dtype=bool), training)

    def forward_from_embeddings(self, emb: Tensor, pad_mask: np.ndarray, training: bool = False) -> ForwardResult:
        """Forward pass starting from an explicit embedding tensor
        [batch, len, d_model]; the entry point for gradient-based attribution."""
        if emb.ndim != 3:
            raise ContractError(f"expected [batch, len, d_model] embeddings, got {emb.shape}")
        return self._encode(emb, np.asarray(pad_mask, dtype=bool), training)

    def _encode(self, x: Tensor, mask: np.ndarray, training: bool) -> ForwardResult:
        cfg = self.config
        batch, seq_len, _ = x.shape
        rng = self._dropout_rng
        hidden: list[Tensor] = []
        routing: list[RoutingRecord] = []
        aux_terms: list[Tensor] = []

        flat_real = np.nonzero(mask.reshape(-1))[0]
        for block in self.blocks:
            attended = multi_head_attention(x, block.mha, mask)
            x = layer_norm(T.add(x, dropout(attended, cfg.dropout, training, rng)), block.norm1)
            if isinstance(block.mixer, SwitchParams):
                # Route only real tokens so padding never shifts capacity
                # or balance statistics.
                flat = T.reshape(x, (batch * seq_len, cfg.d_model))
                routed, record, aux = switch_forward(T.take_rows(flat, flat_real), block.mixer, training)
                mixed = T.reshape(T.scatter_rows(routed, flat_real, batch * seq_len),
                                  (batch, seq_len, cfg.d_model))
                routing.append(record)
                aux_terms.append(aux)
            else:
                mixed = position_wise_ffn(x, block.mixer)
            x = layer_norm(T.add(x, dropout(mixed, cfg.dropout, training, rng)), block.norm2)
            hidden.append(x)

        pooled = self._pool(x, mask)
        logits = linear(dropout(pooled, cfg.dropout, training, rng), self.head)
        if aux_terms:
            total = aux_terms[0]
            for term in aux_terms[1:]:
                total = T.add(total, term)
            aux_loss = T.mul(total, 1.0 / len(aux_terms))
        else:
            aux_loss = Tensor(0.0)
        return ForwardResult(logits=logits, hidden=hidden, aux_loss=aux_loss, routing=routing)

    def _pool(self, x: Tensor, mask: np.ndarray) -> Tensor:
        batch, seq_len, d = x.shape
        if self.config.pooling == "first":
            flat = T.reshape(x, (batch * seq_len, d))
            return T.take_rows(flat, np.arange(batch) * seq_len)
        counts = mask.sum(axis=1, keepdims=True).astype(np.float64)
        weighted = T.mul(x, Tensor(mask[..., None].astype(np.float64)))
        return T.mul(T.sum_(weighted, axis=1), Tensor(1.0 / counts))

    def pooled_hidden(self, token_ids: np.ndarray, pad_mask: np.ndarray, layer: int) -> np.ndarray:
        """Masked-mean pooled hidden state at ``layer`` for a batch, as ndarray."""
        if not 0 <= layer < self.config.num_layers:
            raise ConfigError(
                f"layer {layer} out of range: model has num_layers={self.config.num_layers}"
            )
        result = self.forward(token_ids, pad_mask, training=False)
        mask = np.asarray(pad_mask, dtype=bool)
        return self._pool(result.hidden[layer], mask).data

    # ------------------------------------------------------------------
    # parameters

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor with its dotted name, in a fixed order."""
        return (named_tensors(self.embeddings, "embeddings")
                + named_tensors(self.blocks, "blocks")
                + named_tensors(self.head, "head"))

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.grad = None


@dataclass
class ParamCountReport:
    """Itemized scalar-parameter counts.

    ``core_total`` excludes the token-embedding table, whose size is set by
    the vocabulary rather than the architecture.
    """

    items: list[tuple[str, int]]
    total: int
    core_total: int

    def lines(self) -> list[str]:
        out = [f"{name}\t{count}" for name, count in self.items]
        out.append(f"total\t{self.total}")
        out.append(f"core_total (excl. token embeddings)\t{self.core_total}")
        return out


def count_parameters(model: EncoderModel) -> ParamCountReport:
    """Exact scalar-parameter count, itemized per component."""
    items = [(name, int(p.size)) for name, p in model.parameters()]
    total = sum(c for _, c in items)
    token_table = int(model.embeddings.table.size)
    return ParamCountReport(items=items, total=total, core_total=total - token_table)


def export_hidden_embeddings(model: EncoderModel, encoded, layer: int, path,
                             batch_size: int = 32) -> int:
    """Write one record per example: id, label, pooled hidden vector at
    ``layer``.  ``encoded`` is a sequence of (example_id, ids, label).
    Returns the record count.  Deterministic formatting, so re-export with
    the same checkpoint is byte-identical."""
    if not 0 <= layer < model.config.num_layers:
        raise ConfigError(
            f"layer {layer} out of range: model has num_layers={model.config.num_layers}"
        )
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("example_id\tlabel\t" + "\t".join(f"h{i}" for i in range(model.config.d_model)) + "\n")
        for start in range(0, len(encoded), batch_size):
            chunk = encoded[start:start + batch_size]
            ids, mask = pad_batch([seq for _, seq, _ in chunk])
            pooled = model.pooled_hidden(ids, mask, layer)
            for row, (example_id, _, label) in zip(pooled, chunk):
                vec = "\t".join(f"{v:.17g}" for v in row)
                fh.write(f"{example_id}\t{label}\t{vec}\n")
                written += 1
    return written


# ---------------------------------------------------------------------------
# checkpoint container: magic, version, JSON header, raw little-endian f64


def save_checkpoint(path, model: EncoderModel, vocab=None, extra: dict | None = None) -> str:
    """Serialize config, vocabulary, and all parameters; returns the file's
    sha256 digest.  The byte stream is fully deterministic."""
    params = model.parameters()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": vocab.to_dict() if vocab is not None else None,
        "extra": extra or {},
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params],
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return file_digest(path)


def load_checkpoint(path):
    """Rebuild (model, vocab, extra) from a checkpoint file; parameter
    tensors round-trip bit-exactly.

    All or nothing: a foreign or older-format file, a truncated or malformed
    header or payload, trailing bytes, or a parameter set that differs from
    the model's raises CompatibilityError.  Tensors are read one at a time.
    """
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CompatibilityError(f"not a checkpoint file: {path}")
        (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        if blob_len > os.fstat(fh.fileno()).st_size:
            raise CompatibilityError(f"truncated checkpoint {path}: header length exceeds the file")
        try:
            header = json.loads(_read_exact(fh, blob_len, path, "header").decode("utf-8"))
        except ValueError as e:
            raise CompatibilityError(f"malformed checkpoint header in {path}: {e}") from e
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CompatibilityError(
                f"unsupported checkpoint format version {version} in {path}: this build reads "
                f"version {CHECKPOINT_VERSION}; retrain to write a compatible checkpoint"
            )
        try:
            config = ModelConfig(**header["config"])
            specs = [(spec["name"], tuple(spec["shape"])) for spec in header["params"]]
        except (KeyError, TypeError) as e:
            raise CompatibilityError(f"malformed checkpoint header in {path}: {e!r}") from e
        model = EncoderModel.build(config)
        by_name = dict(model.parameters())
        missing = sorted(by_name.keys() - {name for name, _ in specs})
        if missing:
            raise CompatibilityError(f"checkpoint {path} lacks model parameters {missing}")
        for name, shape in specs:
            if name not in by_name:
                raise CompatibilityError(f"checkpoint parameter {name!r} not in model")
            param = by_name[name]
            if param.shape != shape:
                raise CompatibilityError(
                    f"checkpoint parameter {name!r} has shape {shape}, model expects {param.shape}"
                )
            raw = _read_exact(fh, param.size * 8, path, f"parameter {name!r}")
            param.data = np.frombuffer(raw, dtype="<f8").reshape(param.shape).copy()
        if fh.read(1):
            raise CompatibilityError(f"checkpoint {path} has bytes after its last parameter")
    vocab = Vocabulary.from_dict(header["vocab"]) if header.get("vocab") else None
    return model, vocab, header.get("extra", {})


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise CompatibilityError(
            f"truncated checkpoint {path}: {what} has {len(data)} of {count} bytes"
        )
    return data


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
