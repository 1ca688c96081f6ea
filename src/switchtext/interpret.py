"""Integrated-gradients attribution over input embeddings, with the
completeness residual reported alongside every score.

The path integral of the target logit's gradient is taken along the
straight line from a baseline to the input; by the completeness property
the attributions sum to F(input) - F(baseline) up to discretization error,
which shrinks as the step count grows.  The input, the baseline and every
point between are packed [N, d_model] embedding rows of the real tokens,
as ``embed`` gives them, so each score belongs to one real token.  One
forward at the input gives a report both F(input) and its predicted class.
``misclassified`` and ``by_id`` choose examples; ``attribute``, the one
function that takes the attribution options, reports on each it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Vocabulary, decode, mask_lengths
from .errors import ConfigError, ContractError, NumericError, LookupError_
from .layers import PAD_ID, embed
from .model import EncoderModel
from .tensor import Tape, Tensor
from .training import evaluate


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


def path_integrated_gradients(fn, x: np.ndarray, baseline: np.ndarray, num_steps: int,
                              at_input: float):
    """Integrated gradients of scalar-valued ``fn`` over input ``x``.

    ``fn`` maps a Tensor shaped like ``x`` to a scalar Tensor.  The path
    integral is the right-Riemann sum over ``num_steps`` points.  Returns
    ``(attributions, delta, residual)`` where delta = fn(x) - fn(baseline)
    and residual = attributions.sum() - delta; ``at_input`` is fn(x), which
    the caller has already evaluated.  Each path point is
    differentiated with respect to its probe only, so the gradients of any
    parameters ``fn`` uses are neither computed nor touched.
    """
    if num_steps < 8:
        raise ConfigError(f"num_steps must be >= 8, got {num_steps}")
    if baseline.shape != x.shape:
        raise ContractError(f"baseline shape {baseline.shape} != input shape {x.shape}")

    diff = x - baseline
    total = np.zeros_like(x)
    for k in range(1, num_steps + 1):
        probe = Tensor(baseline + (k / num_steps) * diff, requires_grad=True)
        with Tape(wrt=[probe]) as tape:
            y = fn(probe)
        tape.backward(y)
        if probe.grad is None:
            continue
        if not np.isfinite(probe.grad).all():
            raise NumericError(f"non-finite gradient on the attribution path at step {k}")
        total += probe.grad

    attributions = diff * (total / num_steps)
    delta = at_input - fn(Tensor(baseline)).item()
    residual = float(attributions.sum() - delta)
    return attributions, delta, residual


def _baseline_embedding(model: EncoderModel, ids, lengths, kind: str) -> np.ndarray:
    """Packed baseline rows for the real tokens of the padded ``ids``."""
    if kind == "pad":
        return embed(np.full_like(ids, PAD_ID), lengths, model.embeddings).data
    if kind == "zero":
        return np.zeros((int(lengths.sum()), model.config.d_model))
    raise ConfigError(f"baseline must be 'pad' or 'zero', got {kind!r}")


def integrated_gradients(model: EncoderModel, ids: np.ndarray, mask: np.ndarray,
                         target_class: int | None, vocab: Vocabulary | None = None,
                         baseline: str = "pad", num_steps: int = 128) -> AttributionReport:
    """Attribute the target-class logit to the example's input embeddings.

    ``ids`` and ``mask`` are one example's [len] ids and real-token mask.
    A target class of None attributes the predicted class.  Scores are
    summed over the embedding dimension, one per real token.  The default
    baseline is the all-PAD embedding sequence with positional rows
    retained; ``zero`` uses an all-zero input instead.  One forward pass at
    the input gives both the predicted class and the target logit there.
    """
    ids = np.asarray(ids, dtype=np.int64)[None, :]
    lengths = mask_lengths(ids, np.asarray(mask)[None, :])

    x = embed(ids, lengths, model.embeddings)
    base = _baseline_embedding(model, ids, lengths, baseline)
    logits = model.forward_from_embeddings(x, lengths).logits
    predicted = int(logits.data[0].argmax())
    target = predicted if target_class is None else int(target_class)

    def target_logit(logits: Tensor) -> Tensor:
        return T.sum_(T.take_rows(logits, (np.array([0]), np.array([target]))))

    def logit_fn(emb: Tensor) -> Tensor:
        return target_logit(model.forward_from_embeddings(emb, lengths, training=False).logits)

    attributions, delta, residual = path_integrated_gradients(
        logit_fn, x.data, base, num_steps, at_input=target_logit(logits).item())

    real = ids[0, :lengths[0]]
    tokens = decode(real, vocab) if vocab is not None else [str(i) for i in real]
    return AttributionReport(
        tokens=tokens,
        scores=attributions.sum(axis=1),
        predicted_class=predicted,
        target_class=target,
        completeness_residual=residual,
        output_delta=delta,
        num_steps=num_steps,
        baseline_kind=baseline,
    )


def misclassified(model: EncoderModel, encoded):
    """The EncodedExamples of ``encoded`` that ``evaluate`` predicts wrongly,
    false negatives first, each group in the order of ``encoded``."""
    predictions = evaluate(model, encoded).predictions
    return sorted((e for e, p in zip(encoded, predictions) if p != e.label),
                  key=lambda e: e.label != 1)


def by_id(encoded, example_ids):
    """The examples of ``encoded`` the ids name, in the order named.  Each is
    named by its id or the id's text (``5`` or ``"5"`` names the id 5 and the
    id "5"); a name that matches no example, or two, is a lookup error."""
    by_name: dict[str, list] = {}
    for e in encoded:
        by_name.setdefault(str(e.example_id), []).append(e)
    for name in map(str, example_ids):
        found = by_name.get(name, [])
        if len(found) != 1:
            raise LookupError_(f"example id {name} not found in the requested split" if not found
                               else f"example id {name} names {len(found)} examples: "
                                    + " and ".join(repr(e.example_id) for e in found))
    return [by_name[str(i)][0] for i in example_ids]


def attribute(model: EncoderModel, examples, vocab: Vocabulary | None = None,
              target: str = "true", num_steps: int = 128, baseline: str = "pad"):
    """Integrated gradients for each EncodedExample of ``examples`` against
    its true class (``target="true"``) or the class the report's own pass at
    the input predicts (``"predicted"``).  Returns (example, report) pairs."""
    if target not in ("true", "predicted"):
        raise ConfigError(f"target must be 'true' or 'predicted', got {target!r}")
    return [(example, integrated_gradients(
        model, example.ids, np.ones(len(example.ids), dtype=bool),
        example.label if target == "true" else None, vocab=vocab, baseline=baseline,
        num_steps=num_steps)) for example in examples]
