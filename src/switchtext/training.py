"""Training engine: run configuration, weighted cross-entropy with the
routing auxiliary loss, gradient accumulation, per-epoch evaluation and
logging, early stopping with best-checkpoint restore, and reproducibility
manifests.

All artifacts are plain UTF-8 delimited text or JSON, written with fixed
float formatting so two runs with the same config and seed are
byte-identical.  Wall-clock timings go to a separate sidecar file, which is
the single artifact excluded from that guarantee.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from . import tensor as T
from .data import (LabeledDataset, Vocabulary, build_vocab, class_weights,
                   encode, pad_batch, split_dataset, FRENCH_STOPWORDS)
from .errors import ConfigError, DataError
from .metrics import EvalReport, classification_metrics, confusion, roc_auc
from .model import EncoderModel, ModelConfig, file_digest, load_checkpoint, save_checkpoint
from .optim import AdamW, EarlyStopping, ScheduleConfig, clip_grad_norm, cosine_warmup_lr
from .tensor import Tape, Tensor


@dataclass
class RunConfig:
    """Everything a reproducible run needs; field names double as config-file
    keys and CLI flags."""

    # model
    variant: str = "switch"
    num_layers: int = 4
    num_heads: int = 4
    num_experts: int = 4
    d_model: int = 200
    d_ff: int = 800
    max_len: int = 256
    dropout: float = 0.35
    capacity_factor: float = 1.25
    aux_loss_weight: float = 0.01
    pooling: str = "mean"
    # data
    data_path: str = ""
    min_frequency: int = 2
    merge_negations: bool = False
    use_stopwords: bool = False
    stratify: bool = True
    split_seed: int = 0
    # optimization
    epochs: int = 70
    batch_size: int = 16
    grad_accumulation: int = 4
    peak_lr: float = 3e-4
    min_lr: float = 1e-6
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 5e-6
    class_weighting: bool = True
    # early stopping
    early_stopping: bool = True
    patience: int = 10
    min_delta: float = 1e-4
    # run
    seed: int = 0
    output_dir: str = "runs/default"
    eval_batch_size: int = 64
    # optional run-control target: stop once validation accuracy reaches it
    stop_at_val_accuracy: float = 0.0

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The ModelConfig holding every field this config shares with it by
        name, plus ``vocab_size``; the remaining ModelConfig fields keep
        their defaults."""
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name in own}
        return ModelConfig(vocab_size=vocab_size, **shared)

    def violations(self, check_paths: bool = False) -> list[str]:
        problems = self.model_config(vocab_size=2).violations()
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.grad_accumulation < 1:
            problems.append(f"grad_accumulation must be >= 1, got {self.grad_accumulation}")
        if not 0.0 <= self.warmup_frac < 1.0:
            problems.append(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if not 0.0 <= self.min_lr <= self.peak_lr:
            problems.append(f"need 0 <= min_lr <= peak_lr, got {self.min_lr}, {self.peak_lr}")
        if self.patience < 1:
            problems.append(f"patience must be >= 1, got {self.patience}")
        if self.min_frequency < 1:
            problems.append(f"min_frequency must be >= 1, got {self.min_frequency}")
        if self.eval_batch_size < 1:
            problems.append(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if check_paths and self.data_path:
            import os

            if not os.path.exists(self.data_path):
                problems.append(f"data_path does not exist: {self.data_path}")
        return problems

    def validate(self, check_paths: bool = False) -> "RunConfig":
        problems = self.violations(check_paths=check_paths)
        if problems:
            raise ConfigError("invalid run config: " + "; ".join(problems))
        return self

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Build from config-file keys; each value must have its field's
        default type, except that an int is taken where a float is due."""
        defaults = {f.name: f.default for f in fields(RunConfig)}
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
        return RunConfig(**values)


# ---------------------------------------------------------------------------
# encoding and batching


@dataclass
class EncodedExample:
    example_id: int
    ids: np.ndarray
    label: int
    text: str


def encode_examples(examples, vocab: Vocabulary, max_len: int) -> list[EncodedExample]:
    out = []
    for e in examples:
        ids = encode(e.text, vocab, max_len)
        out.append(EncodedExample(example_id=e.example_id, ids=ids, label=e.label, text=e.text))
    return out


def make_batch(chunk: list[EncodedExample]):
    """Pad a chunk to its own max length; returns (ids, mask, labels)."""
    ids, mask = pad_batch([e.ids for e in chunk])
    return ids, mask, np.asarray([e.label for e in chunk], dtype=np.int64)


# ---------------------------------------------------------------------------
# loss


def _example_weights(labels: np.ndarray, weights=None) -> np.ndarray:
    """Per-example loss weight: its class weight, or 1 without weighting."""
    return np.ones(len(labels)) if weights is None else np.asarray(weights)[labels]


def weighted_cross_entropy(logits: Tensor, labels: np.ndarray, weights=None) -> Tensor:
    """Softmax cross-entropy with per-class weights, normalized by the total
    weight so uniform weights give the plain mean."""
    logp = T.log_softmax(logits, axis=1)
    picked = T.pick(logp, np.arange(len(labels)), labels)
    w = _example_weights(labels, weights)
    return T.mul(T.sum_(T.mul(picked, Tensor(-w))), 1.0 / float(w.sum()))


def total_loss(logits: Tensor, labels: np.ndarray, aux: Tensor,
               aux_weight: float, weights=None) -> tuple[Tensor, Tensor]:
    """The training objective, cross-entropy plus ``aux_weight`` times the
    routing auxiliary loss; returns ``(total, cross_entropy)``."""
    ce = weighted_cross_entropy(logits, labels, weights)
    if aux_weight == 0.0:
        return ce, ce
    return T.add(ce, T.mul(aux, aux_weight)), ce


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalOutcome:
    report: EvalReport
    predictions: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    aux_loss: float
    wall_seconds: float


def evaluate(model: EncoderModel, encoded: list[EncodedExample], batch_size: int = 64,
             weights=None, averaging: str = "positive") -> EvalOutcome:
    """Eval-mode metrics over ``encoded``: weighted cross-entropy, confusion
    metrics, and rank AUC from positive-class probabilities."""
    if not encoded:
        raise DataError("evaluate needs at least one example, got an empty split")
    started = time.perf_counter()
    all_scores, all_preds, all_labels = [], [], []
    loss_sum = 0.0
    weight_sum = 0.0
    aux_values = []
    for start in range(0, len(encoded), batch_size):
        chunk = encoded[start: start + batch_size]
        ids, mask, labels = make_batch(chunk)
        result = model.forward(ids, mask, training=False)
        w_sum = float(_example_weights(labels, weights).sum())
        loss_sum += weighted_cross_entropy(result.logits, labels, weights).item() * w_sum
        weight_sum += w_sum
        probs = np.exp(T.log_softmax(result.logits, axis=1).data)
        all_scores.append(probs[:, 1])
        all_preds.append(probs.argmax(axis=1))
        all_labels.append(labels)
        aux_values.append(result.aux_loss.item())
    scores = np.concatenate(all_scores)
    preds = np.concatenate(all_preds)
    labels = np.concatenate(all_labels)
    cm = confusion(labels, preds)
    auc = roc_auc(labels, scores) if len(np.unique(labels)) == 2 else None
    report = classification_metrics(cm, averaging=averaging, auc=auc)
    report.loss = loss_sum / weight_sum
    return EvalOutcome(
        report=report, predictions=preds, scores=scores, labels=labels,
        aux_loss=float(np.mean(aux_values)), wall_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: EncoderModel
    vocab: Vocabulary
    splits: dict[str, np.ndarray]
    history: list[dict]
    best_epoch: int | None
    stopped_early: bool
    checkpoint_path: str
    checkpoint_digest: str
    final_val: EvalReport | None
    encoded: dict[str, list[EncodedExample]]
    out_dir: str | None


def dataset_digest(dataset: LabeledDataset) -> str:
    h = hashlib.sha256()
    for e in dataset.examples:
        h.update(json.dumps({"id": e.example_id, "text": e.text, "label": e.label},
                            ensure_ascii=False, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def portable_config(config_dict: dict) -> dict:
    """Drop filesystem locations: they are not run semantics (the dataset
    digest carries data identity), and keeping them would break byte
    identity of manifests and checkpoints across directories."""
    return {k: v for k, v in config_dict.items() if k not in ("data_path", "output_dir")}


def write_manifest(out_dir, command: str, config_dict: dict, seed: int,
                   data_digest: str, artifacts: list[str]) -> None:
    config_dict = portable_config(config_dict)
    canonical = json.dumps(config_dict, sort_keys=True, ensure_ascii=False)
    manifest = {
        "command": command,
        "config": config_dict,
        "config_digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": seed,
        "code_version": __version__,
        "dataset_digest": data_digest,
        "platform": {
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "artifacts": sorted(artifacts),
    }
    with open(f"{out_dir}/manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _log_row(fh, epoch, split, report: EvalReport, lr, aux):
    fh.write(f"{epoch}\t{split}\t{report.loss:.6f}\t{report.accuracy:.6f}"
             f"\t{report.precision:.6f}\t{report.recall:.6f}\t{lr:.10g}\t{aux:.6f}\n")


def train(config: RunConfig, dataset: LabeledDataset, out_dir: str | None = None,
          command: str = "train", quiet: bool = False) -> TrainResult:
    """Full training run per ``config`` on ``dataset``.

    Writes, under ``out_dir``: train_log.tsv (epoch/split metric rows),
    gap.tsv (per-epoch val-train loss gap), routing.tsv (per-layer expert
    dispatch), best.ckpt, report_val.{tsv,json}, manifest.json, and
    timings.tsv (wall clock, excluded from determinism guarantees).
    """
    config.validate()
    say = (lambda *a: None) if quiet else print

    splits = split_dataset(dataset, seed=config.split_seed, stratify=config.stratify)
    if len(splits["train"]) == 0 or len(splits["val"]) == 0:
        sizes = ", ".join(f"{name} {len(idx)}" for name, idx in splits.items())
        raise DataError(f"training needs non-empty train and val splits; {len(dataset)} notes "
                        f"split into {sizes}")
    vocab = build_vocab(
        (dataset.examples[i].text for i in splits["train"]),
        min_frequency=config.min_frequency,
        stopwords=FRENCH_STOPWORDS if config.use_stopwords else None,
        merge_negations=config.merge_negations,
    )
    encoded = {
        name: encode_examples([dataset.examples[i] for i in idx], vocab, config.max_len)
        for name, idx in splits.items()
    }
    train_labels = np.asarray([e.label for e in encoded["train"]])
    weights = class_weights(train_labels) if config.class_weighting else None

    model = EncoderModel.build(config.model_config(vocab_size=len(vocab)))
    params = model.parameters()
    opt = AdamW(params, beta1=config.adam_beta1, beta2=config.adam_beta2,
                eps=config.adam_eps, weight_decay=config.weight_decay)

    n_train = len(encoded["train"])
    batches_per_epoch = math.ceil(n_train / config.batch_size)
    steps_per_epoch = math.ceil(batches_per_epoch / config.grad_accumulation)
    total_steps = max(1, steps_per_epoch * config.epochs)
    schedule = ScheduleConfig(
        peak_lr=config.peak_lr, min_lr=config.min_lr,
        warmup_steps=min(int(config.warmup_frac * total_steps), total_steps - 1),
        total_steps=total_steps,
    )

    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5F)))
    stopper = EarlyStopping(patience=config.patience, min_delta=config.min_delta, mode="min")

    history: list[dict] = []
    gap_rows: list[str] = []
    routing_rows: list[str] = []
    timing_rows: list[str] = []
    ckpt_path = f"{out_dir}/best.ckpt" if out_dir else None
    best_saved = False
    stopped_early = False
    step_index = 0

    if config.epochs == 0:
        say("warning: epochs=0, writing the initialized checkpoint and exiting")

    aux_weight = config.aux_loss_weight if config.variant == "switch" else 0.0
    for epoch in range(1, config.epochs + 1):
        epoch_start = time.perf_counter()
        order = shuffle_rng.permutation(n_train)
        num_experts = config.num_experts if config.variant == "switch" else 0
        dispatch = np.zeros((config.num_layers, max(1, num_experts)))
        overflow = np.zeros_like(dispatch)
        tokens_routed = 0
        # Train-split metrics come from the training pass itself.
        run_loss, run_weight, run_aux = 0.0, 0.0, []
        run_preds, run_labels = [], []

        position = 0
        while position < n_train:
            micro_count = 0
            lr = cosine_warmup_lr(step_index, schedule)
            while micro_count < config.grad_accumulation and position < n_train:
                chunk = [encoded["train"][i] for i in order[position: position + config.batch_size]]
                position += config.batch_size
                ids, mask, labels = make_batch(chunk)
                with Tape() as tape:
                    result = model.forward(ids, mask, training=True)
                    loss, ce = total_loss(result.logits, labels, result.aux_loss,
                                          aux_weight, weights)
                tape.backward(loss)
                micro_count += 1
                w_sum = float(_example_weights(labels, weights).sum())
                run_loss += ce.item() * w_sum
                run_weight += w_sum
                run_preds.append(result.logits.data.argmax(axis=1))
                run_labels.append(labels)
                if result.routing:
                    run_aux.append(result.aux_loss.item())
                    tokens_routed += result.routing[0].num_tokens
                for layer, record in enumerate(result.routing):
                    dispatch[layer] += record.dispatched_counts()
                    overflow[layer] += record.dispatched_counts() - record.counts
            if micro_count > 1:
                inv = 1.0 / micro_count
                for _, p in params:
                    if p.grad is not None:
                        p.grad = p.grad * inv
            if config.grad_clip > 0:
                clip_grad_norm(params, config.grad_clip)
            opt.step(lr)
            opt.zero_grad()
            step_index += 1

        train_report = classification_metrics(
            confusion(np.concatenate(run_labels), np.concatenate(run_preds))
        )
        train_report.loss = run_loss / run_weight
        train_aux = float(np.mean(run_aux)) if run_aux else 0.0
        val_out = evaluate(model, encoded["val"], config.eval_batch_size, weights)
        lr_now = cosine_warmup_lr(min(step_index, schedule.total_steps), schedule)
        history.append({
            "epoch": epoch,
            "train": train_report, "val": val_out.report,
            "train_aux": train_aux, "val_aux": val_out.aux_loss,
            "lr": lr_now,
        })
        gap_rows.append(f"{epoch}\t{val_out.report.loss - train_report.loss:.6f}"
                        f"\t{train_report.loss:.6f}\t{val_out.report.loss:.6f}"
                        f"\t{train_report.accuracy:.6f}\t{val_out.report.accuracy:.6f}")
        if num_experts and tokens_routed:
            for layer in range(config.num_layers):
                for e in range(num_experts):
                    routing_rows.append(
                        f"{epoch}\t{layer}\t{e}\t{dispatch[layer, e] / tokens_routed:.6f}"
                        f"\t{overflow[layer, e] / tokens_routed:.6f}"
                    )
        timing_rows.append(f"{epoch}\t{time.perf_counter() - epoch_start:.3f}")
        say(f"epoch {epoch:3d}  train loss {train_report.loss:.4f} acc {train_report.accuracy:.4f}"
            f"  val loss {val_out.report.loss:.4f} acc {val_out.report.accuracy:.4f}")

        if config.early_stopping:
            should_stop = stopper.update(val_out.report.loss, epoch)
            if stopper.best_epoch == epoch:
                if ckpt_path:
                    save_checkpoint(ckpt_path, model, vocab,
                                    extra={"run_config": portable_config(asdict(config)),
                                           "epoch": epoch})
                    best_saved = True
            if should_stop:
                stopped_early = True
                say(f"early stop at epoch {epoch}; best epoch {stopper.best_epoch}")
                break
        if config.stop_at_val_accuracy and val_out.report.accuracy >= config.stop_at_val_accuracy:
            say(f"validation accuracy target {config.stop_at_val_accuracy} reached at epoch {epoch}")
            break

    best_epoch = stopper.best_epoch if config.early_stopping else (config.epochs or None)
    if config.early_stopping and best_saved and ckpt_path:
        model, vocab_restored, _ = load_checkpoint(ckpt_path)
        if vocab_restored is not None:
            vocab = vocab_restored
        digest = file_digest(ckpt_path)
    elif ckpt_path:
        digest = save_checkpoint(ckpt_path, model, vocab,
                                 extra={"run_config": portable_config(asdict(config)),
                                        "epoch": config.epochs})
    else:
        digest = ""

    final_val = None
    if encoded["val"]:
        final_out = evaluate(model, encoded["val"], config.eval_batch_size, weights)
        final_val = final_out.report

    if out_dir:
        header = "epoch\tsplit\tloss\taccuracy\tprecision\trecall\tlr\taux_loss\n"
        with open(f"{out_dir}/train_log.tsv", "w", encoding="utf-8") as fh:
            fh.write(header)
            for row in history:
                _log_row(fh, row["epoch"], "train", row["train"], row["lr"], row["train_aux"])
                _log_row(fh, row["epoch"], "val", row["val"], row["lr"], row["val_aux"])
        with open(f"{out_dir}/gap.tsv", "w", encoding="utf-8") as fh:
            fh.write("epoch\tgap\ttrain_loss\tval_loss\ttrain_accuracy\tval_accuracy\n")
            fh.write("\n".join(gap_rows) + ("\n" if gap_rows else ""))
        with open(f"{out_dir}/routing.tsv", "w", encoding="utf-8") as fh:
            fh.write("epoch\tlayer\texpert\ttoken_fraction\toverflow_fraction\n")
            fh.write("\n".join(routing_rows) + ("\n" if routing_rows else ""))
        with open(f"{out_dir}/timings.tsv", "w", encoding="utf-8") as fh:
            fh.write("epoch\twall_clock_s\n")
            fh.write("\n".join(timing_rows) + ("\n" if timing_rows else ""))
        if final_val is not None:
            _write_report(out_dir, "report_val", final_val)
        write_manifest(out_dir, command, asdict(config), config.seed, dataset_digest(dataset),
                       ["train_log.tsv", "gap.tsv", "routing.tsv", "best.ckpt",
                        "report_val.tsv", "report_val.json"])

    return TrainResult(
        model=model, vocab=vocab, splits=splits, history=history,
        best_epoch=best_epoch, stopped_early=stopped_early,
        checkpoint_path=ckpt_path or "", checkpoint_digest=digest,
        final_val=final_val, encoded=encoded, out_dir=out_dir,
    )


def _write_report(out_dir, name: str, report: EvalReport) -> None:
    with open(f"{out_dir}/{name}.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.table_lines()) + "\n")
    with open(f"{out_dir}/{name}.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
