"""The benchmark's three workloads, each a closed loop with one caller.

Every workload makes its inputs from the benchmark seed, hands the package
only the generated corpus, drives it through its public functions, checks
what comes back, and returns its timings with digests of the checked
outputs.  Sizes are tuned so one run measures about ``RUN_SECONDS`` on a
2-core Xeon with one BLAS thread; the number of inference rounds scales
with the ``--seconds`` asked for.

The package is reached through module attributes (``switchtext.training.
train``, never a name imported from it) so that a traced pass sees the
wrappers ``tracing.installed`` puts in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import switchtext.data
import switchtext.interpret
import switchtext.model
import switchtext.training
from switchtext.errors import SwitchTextError
from switchtext.layers import PAD_ID
from switchtext.tensor import Tape
from switchtext.training import RunConfig

RUN_SECONDS = 35
PREDICTIONS_MIN = 200  # the least that leaves ten samples beyond p95

# Paper scale: RunConfig defaults, trained for a fixed number of epochs.
PAPER_NOTES = 320
PAPER_EPOCHS = 2
PAPER_EVAL_NOTES = 128
PAPER_ROUNDS = 6

# Test scale: the README quick-start shape, trained briefly during set-up.
SMALL_CONFIG = dict(variant="switch", num_layers=2, num_heads=2, num_experts=4,
                    d_model=32, d_ff=128, epochs=6, peak_lr=2e-3,
                    grad_accumulation=1, min_frequency=1)
SMALL_NOTES = 400
SMALL_EVAL_NOTES = 640
SMALL_ROUNDS = 11
IG_PER_ROUND = 2
IG_STEPS = 128
# A constant majority-class guess scores 0.64; the trained small model
# scored 0.78-0.92 over the seeds tried.
SMALL_MIN_ACCURACY = 0.70

EVAL_BATCH = 64


class Ledger:
    """Operations attempted and failed in one run.

    An operation is one call into the package, counted as failed when it
    raises ``SwitchTextError`` or its output fails its check, or one
    standalone check of the outputs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def call(self, what: str, fn, *args, check=None, **kwargs):
        """Run ``fn``; returns ``(result or None, seconds in the call)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except SwitchTextError as exc:
            self.failed += 1
            self.failures.append(f"{what}: {exc.category}: {exc}")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if check is not None and not check(result):
            self.failed += 1
            self.failures.append(f"{what}: output check failed")
        return result, elapsed

    def require(self, result, what: str):
        if result is None:
            raise RuntimeError(f"{what} failed, the workload cannot go on: {self.failures[-1]}")
        return result


@dataclass
class Pass:
    """What one pass of a workload measured and produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    wall_s: float = 0.0


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` quantile, refused unless at least ``min_beyond``
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < min_beyond:
        raise ValueError(f"{len(ordered)} samples leave fewer than {min_beyond} beyond p{q * 100:g}")
    return ordered[max(rank, 1) - 1]


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _notes(n: int, seed: int):
    return switchtext.data.generate_synthetic_corpus(n, positive_fraction=0.36, noise=0.05, seed=seed)


def _scaled(base: int, scale: float, least: int) -> int:
    return max(least, round(base * scale))


def _finite(x) -> bool:
    return bool(np.isfinite(np.asarray(x, dtype=float)).all())


def _train_checked(ledger: Ledger, config: RunConfig, corpus, out_dir: str):
    """``train()`` with its losses and checkpoint digest checked; returns
    (result, seconds, real tokens trained on)."""
    os.makedirs(out_dir, exist_ok=True)
    result, seconds = ledger.call("train", switchtext.training.train, config, corpus,
                                  out_dir=out_dir, quiet=True)
    result = ledger.require(result, "train")
    losses = [row[s].loss for row in result.history for s in ("train", "val")]
    ledger.check(_finite(losses + [result.final_val.loss]), "train: non-finite loss")
    ledger.check(file_sha256(result.checkpoint_path) == result.checkpoint_digest,
                 "train: checkpoint digest differs from the file")
    tokens = sum(len(e.ids) for e in result.encoded["train"]) * len(result.history)
    return result, seconds, tokens


class Rounds:
    """Inference work repeated in rounds spread over the run.

    Each round runs one evaluation pass over the held-out notes and one
    batch-1 prediction sweep over the prediction notes; the workload may
    add its own work between rounds.  On a host whose cores are shared,
    speed swings by up to 2x within a fraction of a second and the share
    of slow moments drifts over minutes.  Spreading the repeats over the
    run averages over more of that drift, and the reported figures are the
    ones that move in proportion to the share: total work over total time,
    the mean latency, and the p95, which always falls among the slow
    moments.  The median jumps from the fast to the slow speed as the
    share passes one half, and the best of several repeats does the same
    when a whole run is slow, so both are printed but not reported.
    """

    def __init__(self, ledger: Ledger, model, eval_notes, predict_notes):
        self.ledger, self.model = ledger, model
        self.eval_notes, self.predict_notes = eval_notes, predict_notes
        self.eval_s: list[float] = []
        self.eval_scores: list[str] = []
        self.latency_ms: list[list[float]] = []
        self.logits: list[str] = []
        self.accuracy = 0.0

    def run(self, tracer) -> None:
        with _span(tracer, "phase.eval"):
            self._evaluate()
        with _span(tracer, "phase.predict"):
            self._predict()

    def _evaluate(self) -> None:
        def probabilities_ok(outcome):
            return _finite(outcome.scores) and bool(((outcome.scores >= 0) & (outcome.scores <= 1)).all())

        outcome, elapsed = self.ledger.call(
            f"evaluate round {len(self.eval_s)}", switchtext.training.evaluate,
            self.model, self.eval_notes, batch_size=EVAL_BATCH, check=probabilities_ok)
        outcome = self.ledger.require(outcome, "evaluate")
        self.eval_s.append(elapsed)
        self.eval_scores.append(sha256(outcome.scores))
        self.accuracy = outcome.report.accuracy

    def _predict(self) -> None:
        latencies, logits = [], []
        for k, example in enumerate(self.predict_notes):
            result, elapsed = self.ledger.call(
                f"predict {k}", self.model.forward, example.ids[None, :],
                np.ones((1, len(example.ids)), dtype=bool), training=False,
                check=lambda r: _finite(r.logits.data))
            if result is not None:
                latencies.append(elapsed * 1e3)
                logits.append(result.logits.data)
        self.latency_ms.append(latencies)
        self.logits.append(sha256(*logits))

    def report(self, out: Pass) -> None:
        self.ledger.check(len(set(self.eval_scores)) == 1, "evaluate: rounds disagree")
        self.ledger.check(len(set(self.logits)) == 1, "predict: sweeps disagree")
        out.metrics["eval_examples_per_s"] = len(self.eval_notes) * len(self.eval_s) / sum(self.eval_s)
        pooled = [ms for sweep in self.latency_ms for ms in sweep]
        out.metrics["predict_ms_mean"] = float(np.mean(pooled))
        out.metrics["predict_ms_p95"] = percentile(pooled, 0.95)
        out.extra["predict_ms_p50"] = percentile(pooled, 0.50)
        out.extra["predict_ms_best_p50"] = percentile(np.min(self.latency_ms, axis=0), 0.50)
        out.extra["predict_samples"] = len(pooled)
        out.extra["eval_accuracy"] = self.accuracy
        out.extra["rounds"] = len(self.eval_s)
        out.outputs["eval_scores"] = self.eval_scores[0]
        out.outputs["predict_logits"] = self.logits[0]


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# paper scale: train, then evaluate and predict with the trained model


def _paper_setup(config: RunConfig, seed: int, n_notes: int):
    """The corpus, vocabulary, encodings and paper-scale model a first step
    needs, through the package's public functions, and one training
    forward/backward so lazy allocation and BLAS start-up finish before
    timing.  ``train()`` repeats these internally."""
    corpus = _notes(n_notes, seed)
    splits = switchtext.data.split_dataset(corpus, seed=config.split_seed, stratify=config.stratify)
    notes = [corpus.examples[i] for i in splits["train"]]
    vocab = switchtext.data.build_vocab((e.text for e in notes), min_frequency=config.min_frequency)
    encoded = switchtext.training.encode_examples(notes, vocab, config.max_len)
    model = switchtext.model.EncoderModel.build(config.model_config(len(vocab)))
    ids, mask, labels = switchtext.training.make_batch(encoded[: config.batch_size])
    with Tape() as tape:
        loss = switchtext.training.weighted_cross_entropy(
            model.forward(ids, mask, training=True).logits, labels)
    tape.backward(loss)
    return corpus, loss.item()


def paper_pass(variant: str, seed: int, scale: float, setup_repeats: int,
               ledger: Ledger, out_dir: str, tracer=None) -> Pass:
    out = Pass()
    started = time.perf_counter()
    train_seed, eval_seed = _seeds(seed, 2)
    config = RunConfig(variant=variant, epochs=PAPER_EPOCHS, output_dir=out_dir)

    setup_s = []
    with _span(tracer, "phase.setup"):
        for _ in range(setup_repeats):
            made, elapsed = ledger.call("setup", _paper_setup, config, train_seed, PAPER_NOTES,
                                        check=lambda r: _finite(r[1]))
            corpus = ledger.require(made, "setup")[0]
            setup_s.append(elapsed)
    out.metrics["setup_s"] = float(np.median(setup_s))

    with _span(tracer, "phase.train"):
        result, seconds, tokens = _train_checked(ledger, config, corpus, out_dir)
    out.metrics["train_tokens_per_s"] = tokens / seconds
    out.extra["val_loss"] = result.final_val.loss
    out.outputs["checkpoint"] = result.checkpoint_digest
    out.outputs["val_report"] = json.dumps(result.final_val.to_dict(), sort_keys=True)

    heldout = switchtext.training.encode_examples(
        _notes(max(PAPER_EVAL_NOTES, PREDICTIONS_MIN), eval_seed).examples, result.vocab, config.max_len)
    rounds = Rounds(ledger, result.model, heldout[:PAPER_EVAL_NOTES], heldout[:PREDICTIONS_MIN])
    for _ in range(_scaled(PAPER_ROUNDS, scale, 1)):
        rounds.run(tracer)
    rounds.report(out)
    out.wall_s = time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# test scale: train during set-up, then evaluate, predict and attribute


def _attribute(ledger: Ledger, model, vocab, examples) -> list:
    """Integrated-gradients reports with their scores and output deltas
    checked; returns (report, seconds) pairs."""
    done = []
    for example in examples:
        mask = np.ones(len(example.ids), dtype=bool)
        report, elapsed = ledger.call(
            f"integrated_gradients {example.example_id}", switchtext.interpret.integrated_gradients,
            model, example.ids, mask, target_class=example.label, vocab=vocab, num_steps=IG_STEPS,
            check=lambda r: _finite(r.scores) and _finite(r.completeness_residual))
        if report is None:
            continue
        done.append((report, elapsed))
        # The report's output delta is the target logit at the input minus
        # the logit at the all-PAD baseline; recompute both here.
        batch_mask = mask[None, :]
        at_input = model.forward(example.ids[None, :], batch_mask).logits.data[0, example.label]
        at_base = model.forward(np.full((1, len(example.ids)), PAD_ID), batch_mask).logits.data[0, example.label]
        own = at_input - at_base
        ledger.check(abs(report.output_delta - own) <= 1e-9 * max(1.0, abs(own)),
                     f"integrated_gradients {example.example_id}: "
                     f"output_delta {report.output_delta} != {own}")
    return done


def attribute_pass(seed: int, scale: float, setup_repeats: int,
                   ledger: Ledger, out_dir: str, tracer=None) -> Pass:
    out = Pass()
    started = time.perf_counter()
    train_seed, eval_seed = _seeds(seed, 2)
    config = RunConfig(**SMALL_CONFIG, output_dir=out_dir)

    setup_s, train_s, tokens, digests = [], [], [], []
    with _span(tracer, "phase.setup"):
        for k in range(setup_repeats):
            start = time.perf_counter()
            corpus = _notes(SMALL_NOTES, train_seed)
            result, seconds, trained = _train_checked(ledger, config, corpus, f"{out_dir}/setup{k}")
            setup_s.append(time.perf_counter() - start)
            train_s.append(seconds)
            tokens.append(trained)
            digests.append(result.checkpoint_digest)
    ledger.check(len(set(digests)) == 1, "set-up: reruns wrote different checkpoints")
    out.metrics["setup_s"] = float(np.median(setup_s))
    out.metrics["train_tokens_per_s"] = sum(tokens) / sum(train_s)
    out.extra["val_loss"] = result.final_val.loss
    out.outputs["checkpoint"] = digests[0]
    out.outputs["val_report"] = json.dumps(result.final_val.to_dict(), sort_keys=True)

    model = result.model
    heldout = switchtext.training.encode_examples(
        _notes(max(SMALL_EVAL_NOTES, PREDICTIONS_MIN), eval_seed).examples, result.vocab, config.max_len)
    rounds = Rounds(ledger, model, heldout[:SMALL_EVAL_NOTES], heldout[:PREDICTIONS_MIN])
    val = result.encoded["val"]
    reports = []
    for r in range(_scaled(SMALL_ROUNDS, scale, 1)):
        rounds.run(tracer)
        with _span(tracer, "phase.attribute"):
            reports += _attribute(ledger, model, result.vocab, val[r * IG_PER_ROUND: (r + 1) * IG_PER_ROUND])
    rounds.report(out)
    ledger.check(out.extra["eval_accuracy"] >= SMALL_MIN_ACCURACY,
                 f"held-out accuracy {out.extra['eval_accuracy']:.4f} < {SMALL_MIN_ACCURACY}")
    out.extra["ig_s_per_example"] = float(np.median([s for _, s in reports]))
    out.extra["ig_residual"] = float(np.median([abs(r.completeness_residual) for r, _ in reports]))
    out.outputs["ig_scores"] = sha256(*(r.scores for r, _ in reports),
                                      np.array([r.output_delta for r, _ in reports]))
    out.wall_s = time.perf_counter() - started
    return out


WORKLOADS = {
    "train-switch-paper": lambda *a, **k: paper_pass("switch", *a, **k),
    "train-dense-paper": lambda *a, **k: paper_pass("dense", *a, **k),
    "attribute-switch-small": attribute_pass,
}
