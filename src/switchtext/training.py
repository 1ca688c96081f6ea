"""Training engine: run configuration, the one training objective (weighted
cross-entropy plus the routing load-balancing penalty), gradient
accumulation, per-epoch evaluation and logging, early stopping (``train``
holds its rule) with best-checkpoint restore, and reproducibility
manifests.  ``TrainResult`` and ``EvalOutcome`` keep what their callers
read; the artifacts hold the rest (learning rate and aux losses per epoch
in train_log.tsv).  The objective and the logged aux loss form the
penalty with the one ``moe.load_balance_loss``: per batch, and over a
whole pass's pooled counts.

All artifacts are plain UTF-8 delimited text or JSON, written with fixed
float formatting so two runs with the same config and seed are
byte-identical.  Wall-clock timings go to a separate sidecar file, which is
the single artifact excluded from that guarantee.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from . import tensor as T
from .data import (LabeledDataset, Vocabulary, build_vocab, class_weights,
                   encode, pad_batch, split_dataset, write_artifact, FRENCH_STOPWORDS)
from .errors import ConfigError, DataError, NumericError
from .metrics import EvalReport, classification_metrics, confusion, roc_auc
from .model import (EncoderModel, ForwardResult, ModelConfig, ModelSettings, load_checkpoint,
                    save_checkpoint)
from .moe import load_balance_loss
from .optim import AdamW, clip_grad_norm, cosine_warmup_lr
from .tensor import Tape, Tensor


@dataclass
class RunConfig(ModelSettings):
    """Everything a reproducible run needs: the model settings (every
    ``ModelConfig`` field but ``vocab_size``, which the vocabulary gives) and
    the fields below; field names double as config-file keys and CLI flags."""

    # objective
    aux_loss_weight: float = 0.01
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
    output_dir: str = "runs/default"
    eval_batch_size: int = 64
    # optional run-control target: stop once validation accuracy reaches it
    stop_at_val_accuracy: float = 0.0

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The ModelConfig of these model settings and ``vocab_size``."""
        return ModelConfig(vocab_size=vocab_size,
                           **{f.name: getattr(self, f.name) for f in fields(ModelSettings)})

    def violations(self) -> list[str]:
        # Each rule of a float field rejects NaN and inf itself, so a bad
        # field is reported once.
        problems = super().violations()
        problems += [f"{name} must be finite and >= 0, got {getattr(self, name)}" for name in
                     ("aux_loss_weight", "weight_decay", "grad_clip", "min_delta")
                     if not 0.0 <= getattr(self, name) < math.inf]
        if not 0.0 <= self.stop_at_val_accuracy <= 1.0:
            problems.append(f"stop_at_val_accuracy must be in [0, 1], got {self.stop_at_val_accuracy}")
        if self.split_seed < 0:
            problems.append(f"split_seed must be >= 0, got {self.split_seed}")
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.grad_accumulation < 1:
            problems.append(f"grad_accumulation must be >= 1, got {self.grad_accumulation}")
        if not 0.0 <= self.warmup_frac < 1.0:
            problems.append(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        problems += [f"{name} must be in [0, 1), got {getattr(self, name)}"
                     for name in ("adam_beta1", "adam_beta2") if not 0.0 <= getattr(self, name) < 1.0]
        if not 0.0 < self.adam_eps < math.inf:
            problems.append(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if not 0.0 <= self.min_lr <= self.peak_lr < math.inf:
            problems.append(f"need 0 <= min_lr <= peak_lr < inf, got {self.min_lr}, {self.peak_lr}")
        if self.patience < 1:
            problems.append(f"patience must be >= 1, got {self.patience}")
        if self.min_frequency < 1:
            problems.append(f"min_frequency must be >= 1, got {self.min_frequency}")
        if self.eval_batch_size < 1:
            problems.append(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        return problems


# ---------------------------------------------------------------------------
# encoding and batching


@dataclass
class EncodedExample:
    example_id: int
    ids: np.ndarray
    label: int


def encode_examples(examples, vocab: Vocabulary, max_len: int) -> list[EncodedExample]:
    return [EncodedExample(example_id=e.example_id, ids=encode(e.text, vocab, max_len),
                           label=e.label) for e in examples]


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
    picked = T.take_rows(logp, (np.arange(len(labels)), labels))
    w = _example_weights(labels, weights)
    return T.mul(T.sum_(T.mul(picked, Tensor(-w))), 1.0 / float(w.sum()))


def total_loss(result: ForwardResult, labels: np.ndarray, aux_weight: float,
               weights=None) -> tuple[Tensor, Tensor, Tensor]:
    """Cross-entropy plus ``aux_weight`` times the mean load-balancing penalty
    of the routed layers (0 when dense); returns ``(total, ce, penalty)``."""
    ce = weighted_cross_entropy(result.logits, labels, weights)
    terms = [load_balance_loss(T.mean(r.probs, axis=0), r.dispatched_counts())
             for r in result.routing]
    aux = T.mul(functools.reduce(T.add, terms), 1.0 / len(terms)) if terms else Tensor(0.0)
    return T.add(ce, T.mul(aux, aux_weight)), ce, aux


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalOutcome:
    report: EvalReport
    predictions: np.ndarray
    scores: np.ndarray
    aux_loss: float


@dataclass
class BatchTally:
    """One pass over a split's batches, in a training epoch or in
    ``evaluate``: the weighted cross-entropy sums, each batch's class
    probabilities and labels, and per switch layer and expert its chosen and
    served token counts and gate-probability sum."""

    weights: np.ndarray | None = None
    loss_sum: float = 0.0
    weight_sum: float = 0.0
    probs: list[np.ndarray] = field(default_factory=list)
    labels: list[np.ndarray] = field(default_factory=list)
    routing: list[np.ndarray] = field(default_factory=list)  # per batch, [layers, 3, experts]

    def add(self, result: ForwardResult, labels: np.ndarray, ce: Tensor) -> None:
        w_sum = float(_example_weights(labels, self.weights).sum())
        self.loss_sum += ce.item() * w_sum
        self.weight_sum += w_sum
        self.probs.append(np.exp(T.log_softmax(result.logits, axis=1).data))
        self.labels.append(labels)
        if result.routing:
            self.routing.append(np.stack([(r.dispatched_counts(), r.counts, r.probs.data.sum(axis=0))
                                          for r in result.routing]))

    def outcome(self) -> EvalOutcome:
        """Weighted mean loss, confusion metrics, rank AUC from positive-class
        probabilities, and the layers' mean ``moe.load_balance_loss`` of the
        counts and gate probabilities pooled over every batch."""
        probs, labels = np.concatenate(self.probs), np.concatenate(self.labels)
        preds = probs.argmax(axis=1)
        auc = roc_auc(labels, probs[:, 1]) if len(np.unique(labels)) == 2 else None
        report = classification_metrics(confusion(labels, preds), auc=auc)
        report.loss = self.loss_sum / self.weight_sum
        aux = 0.0
        if self.routing:
            chose, _, prob_sums = np.moveaxis(sum(self.routing), 1, 0)
            aux = float(np.mean([load_balance_loss(Tensor(p / c.sum()), c).item()
                                 for c, p in zip(chose, prob_sums)]))
        return EvalOutcome(report=report, predictions=preds, scores=probs[:, 1], aux_loss=aux)

    def routing_rows(self, epoch: int) -> list[str]:
        """Per layer and expert, the fractions of the routed tokens that chose
        the expert and that overflowed it; none for a dense model."""
        if not self.routing:
            return []
        chose, served, _ = np.moveaxis(sum(self.routing), 1, 0)
        overflow = chose - served
        tokens = int(chose[0].sum())  # each token chooses one expert in every layer
        return [f"{epoch}\t{layer}\t{e}\t{chose[layer, e] / tokens:.6f}"
                f"\t{overflow[layer, e] / tokens:.6f}" for layer, e in np.ndindex(chose.shape)]


def evaluate(model: EncoderModel, encoded: list[EncodedExample], batch_size: int = 64,
             weights=None) -> EvalOutcome:
    """Eval-mode metrics over ``encoded``: weighted cross-entropy, confusion
    metrics, and rank AUC from positive-class probabilities.

    Batches are taken in a stable length-sorted order, so each holds few
    lengths and little padding; ``predictions`` and ``scores`` come back in
    the order of ``encoded``.  ``eval --batch-size`` reaches the size check unvalidated."""
    if not encoded:
        raise DataError("evaluate needs at least one example, got an empty split")
    if batch_size < 1:
        raise ConfigError(f"evaluation batch size must be >= 1, got {batch_size}")
    order = sorted(range(len(encoded)), key=lambda i: len(encoded[i].ids))
    tally = BatchTally(weights)
    for start in range(0, len(order), batch_size):
        ids, mask, labels = make_batch([encoded[i] for i in order[start: start + batch_size]])
        result = model.forward(ids, mask, training=False)
        tally.add(result, labels, weighted_cross_entropy(result.logits, labels, weights))
    outcome = tally.outcome()
    for values in (outcome.predictions, outcome.scores):  # back to the order of ``encoded``
        values[order] = values.copy()
    return outcome


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    """``best_epoch`` is the restored epoch (0 when no epoch ran); ``model``
    holds its parameters and ``final_val`` its validation report.
    ``history`` has one row per epoch run, mapping "train" and "val" to
    their reports; train_log.tsv holds the learning rate and aux losses."""

    model: EncoderModel
    vocab: Vocabulary
    history: list[dict[str, EvalReport]]
    best_epoch: int
    stopped_early: bool
    checkpoint_path: str
    checkpoint_digest: str
    final_val: EvalReport
    encoded: dict[str, list[EncodedExample]]


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


def _openblas():
    """numpy's bundled OpenBLAS through ctypes, or None for another BLAS build."""
    try:
        lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        return lib
    except (KeyError, AttributeError, OSError):
        return None


def pin_blas_threads() -> None:
    """Run BLAS on one thread, as a GEMM's last bits depend on the thread count."""
    if lib := _openblas():
        lib.scipy_openblas_set_num_threads64_(1)
    else:  # a stderr line, not warnings.warn: the run goes on
        print("warning: cannot pin BLAS to one thread; bits may vary with the thread count",
              file=sys.stderr)


def _blas_platform() -> dict:
    """The BLAS build and core, else its name and version, and the thread count in force."""
    if lib := _openblas():
        return {"blas": lib.scipy_openblas_get_config64_().decode(),
                "blas_threads": lib.scipy_openblas_get_num_threads64_()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}", "blas_threads": None}


def write_manifest(path, command: str, config_dict: dict, data_digest: str,
                   artifacts: list[str]) -> None:
    """The manifest at ``path``: the command, its portable config and that
    config's digest, the seed, code version, dataset digest, platform (BLAS
    included) and the artifact names."""
    config_dict = portable_config(config_dict)
    canonical = json.dumps(config_dict, sort_keys=True, ensure_ascii=False)
    manifest = {
        "command": command,
        "config": config_dict,
        "config_digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config_dict["seed"],
        "code_version": __version__,
        "dataset_digest": data_digest,
        "platform": dict(python=sys.version.split()[0], machine=platform.machine(),
                         system=platform.system(), **_blas_platform()),
        "artifacts": sorted(artifacts),
    }
    write_artifact(path, [json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False), "\n"])


def clear_manifest(path) -> None:
    """Remove the manifest at ``path`` before a run's first artifact: it is
    written last, so one present vouches for a complete set from one run."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as e:
        raise ConfigError(f"cannot remove {path}: {e.strerror}") from e


def train(config: RunConfig, dataset: LabeledDataset, out_dir: str | None = None,
          command: str = "train", quiet: bool = False) -> TrainResult:
    """Full training run per ``config`` on ``dataset``.

    Under early stopping an epoch whose validation loss falls more than
    ``min_delta`` below the best so far is the new best and is saved; the
    run stops ``patience`` epochs after the best, restoring it by loading
    its checkpoint back, with or without ``out_dir`` (a temporary directory
    stands in for a missing one), and a non-finite validation loss raises
    NumericError.  Otherwise the last epoch run is the restored one.

    Writes, under ``out_dir``: train_log.tsv (epoch/split metric rows),
    gap.tsv (per-epoch val-train loss gap), routing.tsv (per-layer expert
    dispatch), best.ckpt (the restored epoch), report_val.{tsv,json} (its
    validation report), manifest.json, and timings.tsv (wall clock,
    excluded from determinism guarantees).  Each file is replaced whole
    through ``write_artifact``: an interrupt while best.ckpt is re-saved
    leaves the previous best epoch's checkpoint in place, and a failed
    write raises ConfigError.  An old manifest.json is removed before the
    first write and the new one written last (``clear_manifest``).
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
    group_size = config.batch_size * config.grad_accumulation
    steps_per_epoch = math.ceil(n_train / group_size)
    total_steps = max(1, steps_per_epoch * config.epochs)
    warmup_steps = min(int(config.warmup_frac * total_steps), total_steps - 1)  # < total_steps
    lr_at = functools.partial(cosine_warmup_lr, peak_lr=config.peak_lr, min_lr=config.min_lr,
                              warmup_steps=warmup_steps, total_steps=total_steps)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5F)))

    history: list[dict[str, EvalReport]] = []
    tables = {  # artifact name -> header and rows
        "train_log.tsv": ["epoch\tsplit\tloss\taccuracy\tprecision\trecall\tlr\taux_loss"],
        "gap.tsv": ["epoch\tgap\ttrain_loss\tval_loss\ttrain_accuracy\tval_accuracy"],
        "routing.tsv": ["epoch\tlayer\texpert\ttoken_fraction\toverflow_fraction"],
        "timings.tsv": ["epoch\twall_clock_s"],
    }
    stopped_early = False
    best_loss, best_epoch = math.inf, 0  # the best epoch under early stopping

    if config.epochs == 0:
        say("warning: epochs=0, writing the initialized checkpoint and exiting")
    if out_dir:
        clear_manifest(f"{out_dir}/manifest.json")

    with (contextlib.nullcontext(out_dir) if out_dir else tempfile.TemporaryDirectory()) as ckpt_dir:
        ckpt_path = f"{ckpt_dir}/best.ckpt"
        digest = ""  # of the checkpoint file's last save

        def save(epoch: int) -> None:
            nonlocal digest
            digest = save_checkpoint(ckpt_path, model, vocab, extra={
                "run_config": portable_config(asdict(config)), "epoch": epoch,
            })

        for epoch in range(1, config.epochs + 1):
            epoch_start = time.perf_counter()
            order = shuffle_rng.permutation(n_train)
            tally = BatchTally(weights)
            for step, start in enumerate(range(0, n_train, group_size), (epoch - 1) * steps_per_epoch):
                group = order[start: start + group_size]
                chunks = [group[i: i + config.batch_size]
                          for i in range(0, len(group), config.batch_size)]
                for chunk in chunks:
                    ids, mask, labels = make_batch([encoded["train"][i] for i in chunk])
                    with Tape() as tape:
                        result = model.forward(ids, mask, training=True)
                        loss, ce, _ = total_loss(result, labels, config.aux_loss_weight, weights)
                    tape.backward(loss)
                    tally.add(result, labels, ce)
                if len(chunks) > 1:
                    opt.grad *= 1.0 / len(chunks)
                if config.grad_clip > 0:
                    clip_grad_norm(params, config.grad_clip)
                opt.step(lr_at(step))
                opt.zero_grad()

            # Train-split metrics come from the training pass itself.
            train_out = tally.outcome()
            val_out = evaluate(model, encoded["val"], config.eval_batch_size, weights)
            train_report, val_report = train_out.report, val_out.report
            lr_now = lr_at(min(epoch * steps_per_epoch, total_steps))
            history.append({"train": train_report, "val": val_report})
            for split, out in (("train", train_out), ("val", val_out)):
                r = out.report
                tables["train_log.tsv"].append(
                    f"{epoch}\t{split}\t{r.loss:.6f}\t{r.accuracy:.6f}\t{r.precision:.6f}"
                    f"\t{r.recall:.6f}\t{lr_now:.10g}\t{out.aux_loss:.6f}")
            tables["gap.tsv"].append(f"{epoch}\t{val_report.loss - train_report.loss:.6f}"
                                     f"\t{train_report.loss:.6f}\t{val_report.loss:.6f}"
                                     f"\t{train_report.accuracy:.6f}\t{val_report.accuracy:.6f}")
            tables["routing.tsv"] += tally.routing_rows(epoch)
            tables["timings.tsv"].append(f"{epoch}\t{time.perf_counter() - epoch_start:.3f}")
            say(f"epoch {epoch:3d}  train loss {train_report.loss:.4f} acc {train_report.accuracy:.4f}"
                f"  val loss {val_report.loss:.4f} acc {val_report.accuracy:.4f}")

            if config.early_stopping:
                if not math.isfinite(val_report.loss):
                    raise NumericError(f"early-stopping metric is not finite: {val_report.loss}")
                if val_report.loss < best_loss - config.min_delta:
                    best_loss, best_epoch = val_report.loss, epoch
                    save(epoch)
                elif epoch - best_epoch >= config.patience:
                    stopped_early = True
                    say(f"early stop at epoch {epoch}; best epoch {best_epoch}")
                    break
            if config.stop_at_val_accuracy and val_report.accuracy >= config.stop_at_val_accuracy:
                say(f"validation accuracy target {config.stop_at_val_accuracy} reached at epoch {epoch}")
                break

        for _, p in params:  # free the gradient and moment arenas before the restore allocates
            p.grad = None
        del opt
        if config.early_stopping and history:
            model = load_checkpoint(ckpt_path)[0]
        else:
            best_epoch = len(history)
            if out_dir:
                save(best_epoch)

    final_val = (history[best_epoch - 1]["val"] if history
                 else evaluate(model, encoded["val"], config.eval_batch_size, weights).report)

    if out_dir:
        for name, lines in tables.items():
            write_artifact(f"{out_dir}/{name}", (f"{line}\n" for line in lines))
        _write_report(out_dir, "report_val", final_val)
        write_manifest(f"{out_dir}/manifest.json", command, asdict(config),
                       dataset_digest(dataset), ["train_log.tsv", "gap.tsv", "routing.tsv",
                                                 "best.ckpt", "report_val.tsv", "report_val.json"])

    return TrainResult(
        model=model, vocab=vocab, history=history,
        best_epoch=best_epoch, stopped_early=stopped_early,
        checkpoint_path=ckpt_path if out_dir else "", checkpoint_digest=digest if out_dir else "",
        final_val=final_val, encoded=encoded,
    )


def _write_report(out_dir, name: str, report: EvalReport) -> None:
    write_artifact(f"{out_dir}/{name}.tsv", ["\n".join(report.table_lines()), "\n"])
    write_artifact(f"{out_dir}/{name}.json",
                   [json.dumps(report.to_dict(), indent=2, sort_keys=True), "\n"])
