"""Encoder model assembly: embeddings, a stack of encoder blocks (dense FFN
or routed expert mixture), mean pooling over each sequence's real tokens,
and a two-logit classifier head.

``EncoderModel.forward`` turns its ``[batch, len]`` padding mask into
lengths once (``data.mask_lengths``); below it, the real tokens travel as
packed ``[N, d_model]`` rows, sequence i the next ``lengths[i]`` rows, and
no layer reads a padded position.  The forward builds no loss term:
``training.total_loss`` builds the whole objective.

A model is its ``ModelConfig`` plus a tree of tensors, which
``parameters()`` walks in one fixed order; the forward passes each layer
the settings it needs.  Also home to the closed-form parameter count,
pooled hidden-state export, and the deterministic checkpoint container,
the tensors in walk order then the sha256 of every byte before them, so a
load rejects a flipped byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest

import numpy as np

from . import tensor as T
from .attention import FfnParams, MultiHeadParams, multi_head_attention, position_wise_ffn
from .data import Vocabulary, mask_lengths, pad_batch, write_artifact
from .errors import CompatibilityError, ConfigError, ContractError
from .layers import (EmbeddingTable, LayerNormParams, LinearParams, dropout, embed, layer_norm,
                     linear, named_tensors)
from .moe import RoutingRecord, SwitchParams, switch_forward
from .tensor import Tensor

CHECKPOINT_MAGIC = b"SWTCKPT1"
CHECKPOINT_VERSION = 6
NUM_CLASSES = 2  # binary labels: the loss, class weights and metrics assume two
EXPORT_BATCH_SIZE = 32  # notes per forward in export_hidden_embeddings


@dataclass
class ModelSettings:
    """The architectural and regularization settings ``ModelConfig`` and
    ``training.RunConfig`` share, with their defaults, range rules and
    config-file parsing."""

    variant: str = "switch"  # {"dense", "switch"}
    num_layers: int = 4
    num_heads: int = 4
    num_experts: int = 4
    d_model: int = 200
    d_ff: int = 800
    max_len: int = 256
    dropout: float = 0.35
    capacity_factor: float = 1.25
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
        if self.max_len < 1:
            problems.append(f"max_len must be >= 1, got {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must be in [0, 1), got {self.dropout}")
        if not 1.0 <= self.capacity_factor < math.inf:
            problems.append(f"capacity_factor must be finite and >= 1, got {self.capacity_factor}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        return problems

    def validate(self):
        problems = self.violations()
        if problems:
            kind = type(self).__name__.removesuffix("Config").lower()
            raise ConfigError(f"invalid {kind} config: " + "; ".join(problems))
        return self

    @classmethod
    def from_dict(cls, d):
        """``cls(**d)`` from config-file keys; each value must have its field's
        default type, except that an int is taken where a float is due."""
        if not isinstance(d, dict):
            raise ConfigError(f"a {cls.__name__} must be a JSON object, got {d!r}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(d) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in d.items():
            want = type(defaults[key])
            if want is float and type(value) is int:
                value = float(value)
            if type(value) is not want:
                raise ConfigError(f"config key {key!r} must be of type {want.__name__}, "
                                  f"got {value!r}")
            values[key] = value
        return cls(**values)


@dataclass
class ModelConfig(ModelSettings):
    """The model settings plus the embedding table's row count."""

    vocab_size: int = 2

    def violations(self) -> list[str]:
        problems = super().violations()
        if self.vocab_size < 2:
            problems.append(f"vocab_size must be >= 2, got {self.vocab_size}")
        return problems


@dataclass
class EncoderBlock:
    mha: MultiHeadParams
    norm1: LayerNormParams
    mixer: FfnParams | SwitchParams  # dense FFN or routed experts
    norm2: LayerNormParams


@dataclass
class ForwardResult:
    """``hidden`` holds each block's output as [N_real, d_model] packed rows,
    ``routing`` each switch layer's record, in layer order."""

    logits: Tensor
    hidden: list[Tensor]
    routing: list[RoutingRecord] = field(default_factory=list)


class EncoderModel:
    """Embeddings, ``num_layers`` post-norm encoder blocks, mean pooling over
    each sequence's real tokens, and a linear classifier head."""

    def __init__(self, config: ModelConfig, embeddings: EmbeddingTable,
                 blocks: list[EncoderBlock], head: LinearParams):
        self.config = config
        self.embeddings = embeddings
        self.blocks = blocks
        self.head = head
        self._dropout_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, 0xD0)).generate_state(4))

    @staticmethod
    def build(config: ModelConfig, init: bool = True) -> "EncoderModel":
        """The model ``config`` describes, drawn from ``config.seed``; with
        ``init`` False nothing is drawn, for a checkpoint load to fill."""
        config.validate()
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0]) if init else None
        embeddings = EmbeddingTable.create(config.vocab_size, config.d_model, config.max_len, rng)
        blocks = []
        for _ in range(config.num_layers):
            mha = MultiHeadParams.create(config.d_model, config.num_heads, rng)
            mixer = (FfnParams.create(config.d_model, config.d_ff, rng) if config.variant == "dense"
                     else SwitchParams.create(config.d_model, config.d_ff, config.num_experts, rng))
            blocks.append(EncoderBlock(
                mha=mha,
                norm1=LayerNormParams.create(config.d_model),
                mixer=mixer,
                norm2=LayerNormParams.create(config.d_model),
            ))
        head = LinearParams.create(config.d_model, NUM_CLASSES, rng)
        return EncoderModel(config, embeddings, blocks, head)

    # ------------------------------------------------------------------
    # forward

    def forward(self, token_ids: np.ndarray, pad_mask: np.ndarray, training: bool = False) -> ForwardResult:
        """Run a batch of padded id sequences through the encoder.

        ``token_ids`` and ``pad_mask`` are [batch, len]; the mask marks real
        tokens (``data.mask_lengths``).  Returns logits [batch, NUM_CLASSES],
        post-block hidden states for every layer (packed [N_real, d_model]
        rows), and one routing record per switch layer (none if dense).
        """
        ids = np.asarray(token_ids)
        if ids.ndim != 2 or 0 in ids.shape:
            raise ContractError(f"forward expects a non-empty [batch, len] id array, got {ids.shape}")
        lengths = mask_lengths(ids, pad_mask)
        return self._encode(embed(ids, lengths, self.embeddings), lengths, training)

    def forward_from_embeddings(self, emb: Tensor, lengths: np.ndarray, training: bool = False) -> ForwardResult:
        """Forward pass starting from explicit embeddings: packed [N, d_model]
        rows, sequence i the next ``lengths[i]`` rows, as ``embed`` gives
        them; the entry point for gradient-based attribution."""
        return self._encode(emb, np.asarray(lengths), training)

    def _encode(self, h: Tensor, lengths: np.ndarray, training: bool) -> ForwardResult:
        cfg = self.config
        if h.ndim != 2:
            raise ContractError(f"expected [N, d_model] rows, one per real token, got {h.shape}")
        rng = self._dropout_rng
        hidden: list[Tensor] = []
        routing: list[RoutingRecord] = []

        for block in self.blocks:
            attended = multi_head_attention(h, block.mha, lengths, cfg.num_heads)
            h = layer_norm(T.add(h, dropout(attended, cfg.dropout, training, rng)), block.norm1)
            if isinstance(block.mixer, SwitchParams):
                mixed, record = switch_forward(h, block.mixer, training, cfg.capacity_factor)
                routing.append(record)
            else:
                mixed = position_wise_ffn(h, block.mixer)
            h = layer_norm(T.add(h, dropout(mixed, cfg.dropout, training, rng)), block.norm2)
            hidden.append(h)

        logits = linear(dropout(self._pool(h, lengths), cfg.dropout, training, rng), self.head)
        return ForwardResult(logits=logits, hidden=hidden, routing=routing)

    def _pool(self, h: Tensor, lengths: np.ndarray) -> Tensor:
        """[batch, d_model]: the mean of each sequence's packed rows."""
        return T.mul(T.segment_sum(h, lengths), Tensor(1.0 / lengths[:, None]))

    # ------------------------------------------------------------------
    # parameters

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor with its dotted name, in a fixed order."""
        return (named_tensors(self.embeddings, "embeddings")
                + named_tensors(self.blocks, "blocks")
                + named_tensors(self.head, "head"))


def parameter_count(config: ModelConfig) -> int:
    """The scalar-parameter count of the model ``config`` describes, in closed
    form, without building it."""
    d, f, experts = config.d_model, config.d_ff, config.num_experts
    ffn = 2 * d * f + f + d
    mixer = ffn if config.variant == "dense" else d * experts + experts + experts * ffn
    block = 4 * d * d + d + 4 * d + mixer  # qkv and output maps, output bias, two norms
    head = (d + 1) * NUM_CLASSES
    return (config.vocab_size + config.max_len) * d + config.num_layers * block + head


def export_hidden_embeddings(model: EncoderModel, encoded, layer: int, path) -> int:
    """Write one record per example: id, label, pooled hidden vector at
    ``layer``.  ``encoded`` is the ``EncodedExample`` list ``evaluate``
    takes.  Returns the record count.  Deterministic formatting, so
    re-export with the same checkpoint is byte-identical."""
    if not 0 <= layer < model.config.num_layers:
        raise ConfigError(
            f"layer {layer} out of range: model has num_layers={model.config.num_layers}"
        )

    def lines():
        yield "example_id\tlabel\t" + "\t".join(f"h{i}" for i in range(model.config.d_model)) + "\n"
        for start in range(0, len(encoded), EXPORT_BATCH_SIZE):
            chunk = encoded[start:start + EXPORT_BATCH_SIZE]
            ids, mask = pad_batch([e.ids for e in chunk])
            pooled = model._pool(model.forward(ids, mask).hidden[layer], mask_lengths(ids, mask))
            for row, e in zip(pooled.data, chunk):
                vec = "\t".join(f"{v:.17g}" for v in row)
                yield f"{e.example_id}\t{e.label}\t{vec}\n"

    write_artifact(path, lines())
    return len(encoded)


# ---------------------------------------------------------------------------
# checkpoint container: magic, header length, JSON header, raw little-endian
# f64 parameters, and a trailer holding the sha256 of all the bytes before it


def save_checkpoint(path, model: EncoderModel, vocab=None, extra: dict | None = None) -> str:
    """Serialize config, vocabulary, and all parameters, then the sha256
    trailer; returns the whole file's sha256 digest, hashed from the bytes
    as they are written.  The byte stream is fully deterministic."""
    params = model.parameters()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": vocab.to_dict() if vocab is not None else None,
        "extra": extra or {},
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params],
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    h = hashlib.sha256()

    def parts():
        for part in ([CHECKPOINT_MAGIC, struct.pack("<Q", len(blob)), blob]
                     + [np.ascontiguousarray(p.data, dtype="<f8") for _, p in params]):
            h.update(part)
            yield part
        trailer = h.digest()  # of every byte before it; then h hashes the whole file
        h.update(trailer)
        yield trailer

    write_artifact(path, parts())
    return h.hexdigest()


def load_checkpoint(path):
    """Rebuild (model, vocab, extra) from a checkpoint file; parameter
    tensors round-trip bit-exactly.

    All or nothing: a missing or unreadable path, a foreign or older-format
    file, a truncated or malformed header (config values of the wrong type,
    a vocabulary that is not 2 to ``vocab_size`` tokens, an ``extra`` that is
    not an object) or payload, trailing bytes, parameter specs (name, shape)
    other than the model's ``parameters()`` walk in order, or bytes that do
    not match the sha256 trailer raises CompatibilityError.  The parameter
    specs must account for the file's length and for the config's
    closed-form parameter count before the model is built, so a header
    cannot ask for a model its file does not hold.  The payload is one read
    into one buffer, each parameter a view of it; the trailer is checked
    after the version and spec checks.
    """
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CompatibilityError(f"cannot read checkpoint {path}: {e.strerror}") from e
    h = hashlib.sha256(CHECKPOINT_MAGIC)  # of the bytes read so far

    def read(count: int, what: str) -> bytes:
        data = fh.read(count)
        if len(data) != count:
            raise CompatibilityError(f"truncated checkpoint {path}: {what} has {len(data)} of "
                                     f"{count} bytes")
        h.update(data)
        return data

    with fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CompatibilityError(f"not a checkpoint file: {path}")
        (blob_len,) = struct.unpack("<Q", read(8, "header length"))
        file_size = os.fstat(fh.fileno()).st_size
        if blob_len > file_size:
            raise CompatibilityError(f"truncated checkpoint {path}: header length exceeds the file")
        try:
            header = json.loads(read(blob_len, "header").decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise CompatibilityError(f"malformed checkpoint header in {path}: {e}") from e
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CompatibilityError(
                f"unsupported checkpoint format version {version} in {path}: this build reads "
                f"version {CHECKPOINT_VERSION}; retrain to write a compatible checkpoint"
            )
        try:
            specs = [(spec["name"], tuple(spec["shape"])) for spec in header["params"]]
            if not all(type(n) is int and n >= 0 for _, shape in specs for n in shape):
                raise TypeError(f"parameter shapes must be lists of counts, got {specs!r}")
            config = ModelConfig.from_dict(header["config"]).validate()
            vocab = Vocabulary.from_dict(header["vocab"]) if header.get("vocab") else None
            extra = header.get("extra", {})
            if not isinstance(extra, dict):
                raise TypeError(f"extra must be an object, got {extra!r}")
        except (KeyError, TypeError, ConfigError) as e:
            raise CompatibilityError(f"malformed checkpoint header in {path}: {e!r}") from e
        # Bound the model by the file before building it: the specs must
        # describe the bytes that follow, and the config that many scalars.
        total = sum(math.prod(shape) for _, shape in specs)
        rest, want = file_size - fh.tell(), 8 * total + h.digest_size
        if rest < want:
            raise CompatibilityError(f"truncated checkpoint {path}: its parameters and sha256 "
                                     f"trailer need {want} bytes after the header, it has {rest}")
        if rest > want:
            raise CompatibilityError(f"checkpoint {path} has bytes after its last parameter "
                                     f"and sha256 trailer")
        described = parameter_count(config)
        if total != described:
            what = "lacks model parameters" if total < described else "holds extra parameters"
            raise CompatibilityError(f"checkpoint {path} {what}: they hold {total} scalars, its "
                                     f"config describes {described}")
        model = EncoderModel.build(config, init=False)
        if vocab is not None and not 2 <= len(vocab) <= config.vocab_size:
            raise CompatibilityError(f"checkpoint {path} holds {len(vocab)} vocabulary tokens for "
                                     f"an embedding table of {config.vocab_size} rows")
        params = model.parameters()
        walk = [(name, p.shape) for name, p in params]
        if specs != walk:
            have, need = next(pair for pair in zip_longest(specs, walk) if pair[0] != pair[1])
            raise CompatibilityError(f"checkpoint {path} parameters do not follow the model's "
                                     f"walk: it has {have} where the model has {need}")
        payload = np.empty(total, dtype="<f8")
        if fh.readinto(payload) != payload.nbytes:
            raise CompatibilityError(f"truncated checkpoint {path}: its parameters end early")
        h.update(payload)
        offset = 0
        for _, param in params:
            param.data = payload[offset:offset + param.size].reshape(param.shape)
            offset += param.size
        digest = h.digest()
        if read(h.digest_size, "sha256 trailer") != digest:
            raise CompatibilityError(f"corrupted checkpoint {path}: its bytes do not match "
                                     f"their sha256 trailer")
    return model, vocab, extra
