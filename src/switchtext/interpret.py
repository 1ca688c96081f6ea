"""Integrated-gradients attribution over input embeddings, with the
completeness residual reported alongside every score.

The path integral of the target logit's gradient is taken along the
straight line from a baseline to the input; by the completeness property
the attributions sum to F(input) - F(baseline) up to discretization error,
which shrinks as the step count grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Vocabulary, decode
from .errors import ConfigError, ContractError, NumericError, LookupError_
from .layers import PAD_ID, embed
from .model import EncoderModel
from .tensor import Tape, Tensor


@dataclass
class AttributionReport:
    tokens: list[str]
    scores: np.ndarray
    predicted_class: int
    target_class: int
    completeness_residual: float
    output_delta: float
    num_steps: int
    baseline_kind: str

    def ranked_tokens(self) -> list[tuple[str, float]]:
        order = np.argsort(-np.abs(self.scores))
        return [(self.tokens[i], float(self.scores[i])) for i in order]

    def text_lines(self) -> list[str]:
        lines = [
            f"target_class={self.target_class} predicted_class={self.predicted_class} "
            f"num_steps={self.num_steps} baseline={self.baseline_kind}",
            f"output_delta={self.output_delta:.6f} "
            f"completeness_residual={self.completeness_residual:.6g}",
            "token\tscore",
        ]
        lines += [f"{tok}\t{score:+.6f}" for tok, score in zip(self.tokens, self.scores)]
        return lines


def path_integrated_gradients(fn, x: np.ndarray, baseline: np.ndarray, num_steps: int):
    """Integrated gradients of scalar-valued ``fn`` over input ``x``.

    ``fn`` maps a Tensor shaped like ``x`` to a scalar Tensor.  The path
    integral is the right-Riemann sum over ``num_steps`` points.  Returns
    ``(attributions, delta, residual)`` where delta = fn(x) - fn(baseline)
    and residual = attributions.sum() - delta.
    """
    if num_steps < 8:
        raise ConfigError(f"num_steps must be >= 8, got {num_steps}")
    if baseline.shape != x.shape:
        raise ContractError(f"baseline shape {baseline.shape} != input shape {x.shape}")

    diff = x - baseline
    total = np.zeros_like(x)
    for k in range(1, num_steps + 1):
        probe = Tensor(baseline + (k / num_steps) * diff, requires_grad=True)
        with Tape() as tape:
            y = fn(probe)
        tape.backward(y)
        if probe.grad is None:
            continue
        if not np.isfinite(probe.grad).all():
            raise NumericError(f"non-finite gradient on the attribution path at step {k}")
        total += probe.grad

    attributions = diff * (total / num_steps)
    delta = fn(Tensor(x)).item() - fn(Tensor(baseline)).item()
    residual = float(attributions.sum() - delta)
    return attributions, delta, residual


def _baseline_embedding(model: EncoderModel, seq_len: int, kind: str) -> np.ndarray:
    if kind == "pad":
        return embed(np.full(seq_len, PAD_ID, dtype=np.int64), model.embeddings).data
    if kind == "zero":
        return np.zeros((seq_len, model.config.d_model))
    raise ConfigError(f"baseline must be 'pad' or 'zero', got {kind!r}")


def integrated_gradients(model: EncoderModel, ids: np.ndarray, mask: np.ndarray,
                         target_class: int, vocab: Vocabulary | None = None,
                         baseline: str = "pad", num_steps: int = 128) -> AttributionReport:
    """Attribute the target-class logit to the example's input embeddings.

    Scores are summed over the embedding dimension, one per real token.
    The default baseline is the all-PAD embedding sequence with positional
    rows retained; ``zero`` uses an all-zero input instead.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    batch_mask = mask[None, :]
    target = int(target_class)

    def logit_fn(emb: Tensor) -> Tensor:
        result = model.forward_from_embeddings(
            T.reshape(emb, (1,) + emb.shape), batch_mask, training=False
        )
        return T.sum_(T.pick(result.logits, np.array([0]), np.array([target])))

    x = embed(ids, model.embeddings).data
    base = _baseline_embedding(model, len(ids), baseline)
    attributions, delta, residual = path_integrated_gradients(logit_fn, x, base, num_steps)

    logits = model.forward(ids[None, :], batch_mask, training=False).logits.data[0]
    per_token = attributions.sum(axis=1)
    real = np.nonzero(mask)[0]
    tokens = decode(ids[real], vocab) if vocab is not None else [str(i) for i in ids[real]]
    return AttributionReport(
        tokens=tokens,
        scores=per_token[real],
        predicted_class=int(logits.argmax()),
        target_class=target,
        completeness_residual=residual,
        output_delta=delta,
        num_steps=num_steps,
        baseline_kind=baseline,
    )


def rank_misclassified(model: EncoderModel, encoded, vocab: Vocabulary | None = None,
                       target: str = "true", num_steps: int = 128,
                       baseline: str = "pad", eval_batch_size: int = 64,
                       limit: int | None = None):
    """Attribution reports for every misclassified example of a split,
    false negatives first.

    ``encoded`` is a list of EncodedExample; ``target`` selects whether
    attributions explain the true class (default) or the predicted one.
    Returns a list of (EncodedExample, AttributionReport).
    """
    from .training import evaluate

    outcome = evaluate(model, encoded, batch_size=eval_batch_size)
    wrong = [i for i in range(len(encoded)) if outcome.predictions[i] != outcome.labels[i]]
    # False negatives (true label 1) lead; stable by position within groups.
    wrong.sort(key=lambda i: (outcome.labels[i] != 1, i))
    if limit is not None:
        wrong = wrong[:limit]
    return _attribute_each(model, [(encoded[i], int(outcome.predictions[i])) for i in wrong],
                           vocab, target, num_steps, baseline)


def attribution_for_ids(model: EncoderModel, encoded, example_ids, vocab=None,
                        target: str = "true", num_steps: int = 128, baseline: str = "pad"):
    """Attribution reports for specific example ids within a split."""
    by_id = {e.example_id: e for e in encoded}
    for example_id in example_ids:
        if example_id not in by_id:
            raise LookupError_(f"example id {example_id} not found in the requested split")
    return _attribute_each(model, [(by_id[i], None) for i in example_ids],
                           vocab, target, num_steps, baseline)


def _attribute_each(model: EncoderModel, pairs, vocab, target: str, num_steps: int,
                    baseline: str):
    """Integrated gradients for each (EncodedExample, predicted class) pair
    against the true or the predicted class; a predicted class of None is
    taken from a batch-1 forward pass.  Returns (example, report) pairs."""
    if target not in ("true", "predicted"):
        raise ConfigError(f"target must be 'true' or 'predicted', got {target!r}")
    reports = []
    for example, predicted in pairs:
        mask = np.ones(len(example.ids), dtype=bool)
        if target == "true":
            target_class = example.label
        elif predicted is not None:
            target_class = predicted
        else:
            logits = model.forward(example.ids[None, :], mask[None, :]).logits.data[0]
            target_class = int(logits.argmax())
        reports.append((example, integrated_gradients(
            model, example.ids, mask, target_class, vocab=vocab,
            baseline=baseline, num_steps=num_steps,
        )))
    return reports
