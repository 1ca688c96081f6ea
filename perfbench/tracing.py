"""In-memory span tracing of switchtext, installed from outside the package.

The tracer wraps module-level names and methods of the package at call
time; nothing under ``src/`` knows about it.  Each wrapped call records a
span (name, start, end, parent index).  Tape nodes recorded while a span is
open get their vector-Jacobian products timed and tagged with that span's
name, which splits backward time by module.  Matrix products are timed and
their floating-point operations counted without opening a span, so they
stay inside the module span that issued them.

Spans live in memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import switchtext.data
import switchtext.interpret
import switchtext.model
import switchtext.moe
import switchtext.tensor
import switchtext.training
from switchtext.model import EncoderModel
from switchtext.optim import AdamW
from switchtext.tensor import Tape

# Span names of the model's parts, in the order their per-module metrics
# are reported.  "moe.dispatch" is the self time of ``switch_forward`` and
# "model.other" the self time of the encoder forward (residual adds,
# routing gather/scatter, auxiliary-loss averaging).
MODULE_SPANS = (
    "layers.embed", "layers.layer_norm", "layers.dropout",
    "attention.mha", "attention.ffn",
    "moe.gate", "moe.experts", "moe.dispatch",
    "model.pool_head", "model.other",
)
_SELF_NAME = {"moe.switch": "moe.dispatch", "model.forward": "model.other"}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.vjp_s: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def innermost(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def timed_vjp(self, vjp, tag: str, flop: float):
        def timed(g):
            start = self.clock()
            out = vjp(g)
            elapsed = self.clock() - start
            self.vjp_s[tag] += elapsed
            if flop:
                self.counts["tensor.matmul_bwd_s"] += elapsed
                self.counts["tensor.matmul_bwd_flop"] += flop
            return out
        return timed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "vjp_s": dict(self.vjp_s)}, fh)
            fh.write("\n")


def partition_error(spans) -> float:
    """How far the self times of all spans miss the root spans' total
    duration, as a share of it; 0 up to rounding when nothing is counted
    twice or left out."""
    roots = sum(end - start for _, start, end, parent in spans if parent is None)
    return abs(sum(self_times(spans)) - roots) / roots if roots else 0.0


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their
    durations are exactly the covered part of the parent's interval.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _after_switch(tracer, args, kwargs, result):
    record = result[1]
    training = args[2] if len(args) > 2 else kwargs.get("training", True)
    phase = "train" if training else "eval"
    tracer.counts[f"moe.{phase}_tokens"] += record.num_tokens
    tracer.counts[f"moe.{phase}_dropped"] += record.overflow
    tracer.counts["moe.max_expert_tokens"] += int(record.dispatched_counts().max())


def _after_make_batch(tracer, args, kwargs, result):
    if tracer.inside("training.evaluate"):
        return
    mask = result[1]
    tracer.counts["data.batch_positions"] += mask.size
    tracer.counts["data.pad_positions"] += mask.size - int(mask.sum())


def _after_save(tracer, args, kwargs, result):
    tracer.counts["model.checkpoint_bytes"] = os.path.getsize(args[0])


def _after_adamw(tracer, args, kwargs, result):
    tracer.counts["optim.param_count"] = sum(p.size for _, p in args[0].params)


def _matmul_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(a, b):
        start = tracer.clock()
        out = fn(a, b)
        tracer.counts["tensor.matmul_fwd_s"] += tracer.clock() - start
        tracer.counts["tensor.matmul_fwd_flop"] += 2.0 * out.size * np.shape(a)[-1]
        return out
    return traced


def _record_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(self, out, edges):
        tag = tracer.innermost()
        # Both products in a matmul's backward cost 2 * out.size * k flops.
        flop = 0.0
        if any(getattr(v, "__qualname__", "").startswith("matmul.") for _, v in edges):
            flop = 2.0 * out.size * edges[0][0].shape[-1]
        timed = [(t, None if v is None else tracer.timed_vjp(v, tag, flop)) for t, v in edges]
        tracer.counts["tensor.tape_nodes"] += 1
        return fn(self, out, timed)
    return traced


def _targets():
    """(owner, attribute, span name, after hook) for every traced name.

    Owners are the namespaces the package looks the names up in at call
    time, so a function imported into several modules is wrapped in each.
    """
    m, moe, tr, data = switchtext.model, switchtext.moe, switchtext.training, switchtext.data
    return [
        (tr, "train", "training.train", None),
        (tr, "evaluate", "training.evaluate", None),
        (tr, "make_batch", "training.make_batch", _after_make_batch),
        (tr, "weighted_cross_entropy", "training.loss", None),
        (tr, "clip_grad_norm", "optim.clip", None),
        (tr, "save_checkpoint", "model.checkpoint_save", _after_save),
        (tr, "load_checkpoint", "model.checkpoint_load", None),
        (tr, "build_vocab", "data.vocab_encode", None),
        (tr, "encode_examples", "data.vocab_encode", None),
        (data, "build_vocab", "data.vocab_encode", None),
        (tr, "confusion", "metrics.report", None),
        (tr, "classification_metrics", "metrics.report", None),
        (tr, "roc_auc", "metrics.report", None),
        (m, "embed", "layers.embed", None),
        (m, "layer_norm", "layers.layer_norm", None),
        (m, "dropout", "layers.dropout", None),
        (m, "multi_head_attention", "attention.mha", None),
        (m, "position_wise_ffn", "attention.ffn", None),
        (m, "switch_forward", "moe.switch", _after_switch),
        (moe, "gate_probs", "moe.gate", None),
        (moe, "position_wise_ffn", "moe.experts", None),
        (m, "linear", "model.pool_head", None),
        (EncoderModel, "_pool", "model.pool_head", None),
        (EncoderModel, "forward", "model.forward", None),
        (EncoderModel, "forward_from_embeddings", "model.forward", None),
        (EncoderModel, "build", "model.build", None),
        (Tape, "backward", "tensor.backward", None),
        (AdamW, "step", "optim.adamw", _after_adamw),
        (switchtext.interpret, "integrated_gradients", "interpret.ig", None),
    ]


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block, then restore
    the originals, also when the block raises."""
    saved = []
    try:
        for owner, attr, name, after in _targets():
            raw = _raw(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(_span_wrapper(tracer, raw.__func__, name, after)))
            else:
                setattr(owner, attr, _span_wrapper(tracer, raw, name, after))
        for owner, attr, wrap in ((switchtext.tensor, "matmul", _matmul_wrapper),
                                  (Tape, "record", _record_wrapper)):
            raw = _raw(owner, attr)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrap(tracer, raw))
        yield saved
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def wrappers_removed(saved) -> bool:
    """True when every attribute ``installed`` replaced holds its original."""
    return all(_raw(owner, attr) is raw for owner, attr, raw in saved)


# ---------------------------------------------------------------------------
# per-module metrics


def module_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module numbers of one traced pass, keyed by metric name.

    Forward time of a module is the self time of its spans; backward time
    is the time spent in the vjps recorded under them.  Train-step numbers
    are means per optimizer step over every ``train()`` call of the pass.
    """
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    under_train = defaultdict(float)  # direct children of training.train
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_s[_SELF_NAME.get(name, name)] += own[i]
        calls[name] += 1
        if parent is not None and spans[parent][0] == "training.train":
            under_train[name] += end - start
            calls["train/" + name] += 1
    vjp = defaultdict(float)
    for tag, seconds in tracer.vjp_s.items():
        vjp[_SELF_NAME.get(tag, tag)] += seconds

    out: dict[str, float] = {}
    steps = max(1, calls["train/optim.adamw"])
    not_step = ("training.evaluate", "model.checkpoint_save", "model.checkpoint_load",
                "data.vocab_encode", "model.build")
    out["training.step_s"] = (total["training.train"]
                              - sum(under_train[n] for n in not_step)) / steps
    out["training.fwd_s"] = (under_train["model.forward"] + under_train["training.loss"]) / steps
    out["training.bwd_s"] = under_train["tensor.backward"] / steps
    out["training.opt_s"] = (under_train["optim.adamw"] + under_train["optim.clip"]) / steps
    out["training.make_batch_s"] = under_train["training.make_batch"] / steps
    out["training.val_eval_s"] = under_train["training.evaluate"] / max(1, calls["train/training.evaluate"])
    split = sum(out[f"training.{part}_s"] for part in ("fwd", "bwd", "opt", "make_batch"))
    out["training.step_accounted_frac"] = split / out["training.step_s"] if out["training.step_s"] else 0.0

    out["data.vocab_encode_s"] = total["data.vocab_encode"]
    out["data.pad_frac"] = counts["data.pad_positions"] / max(1.0, counts["data.batch_positions"])

    for name in MODULE_SPANS:
        out[f"{name}.fwd_s"] = self_s[name]
        out[f"{name}.bwd_s"] = vjp[name]
    train_tokens, eval_tokens = counts["moe.train_tokens"], counts["moe.eval_tokens"]
    out["moe.tokens_routed"] = train_tokens + eval_tokens
    out["moe.drop_frac"] = counts["moe.train_dropped"] / max(1.0, train_tokens)
    out["moe.eval_drop_frac"] = counts["moe.eval_dropped"] / max(1.0, eval_tokens)
    out["moe.max_expert_frac"] = counts["moe.max_expert_tokens"] / max(1.0, train_tokens + eval_tokens)

    out["model.checkpoint_save_s"] = total["model.checkpoint_save"]
    out["model.checkpoint_load_s"] = total["model.checkpoint_load"]
    out["model.checkpoint_mb"] = counts["model.checkpoint_bytes"] / 2**20

    passes = max(1, calls["tensor.backward"])
    vjp_total = sum(tracer.vjp_s.values())
    matmul_s = counts["tensor.matmul_fwd_s"] + counts["tensor.matmul_bwd_s"]
    matmul_gflop = (counts["tensor.matmul_fwd_flop"] + counts["tensor.matmul_bwd_flop"]) / 1e9
    roots = sum(end - start for _, start, end, parent in spans if parent is None)
    out["tensor.tape_nodes_per_pass"] = counts["tensor.tape_nodes"] / passes
    out["tensor.backward_s"] = total["tensor.backward"]
    out["tensor.backward_overhead_s"] = total["tensor.backward"] - vjp_total
    out["tensor.matmul_s"] = matmul_s
    out["tensor.matmul_gflop"] = matmul_gflop
    out["tensor.matmul_gflops"] = matmul_gflop / matmul_s if matmul_s else 0.0
    out["tensor.matmul_share"] = matmul_s / roots if roots else 0.0

    # Bytes AdamW must move at least: read p, g, m, v and write p, m, v.
    adamw_steps = calls["optim.adamw"]
    out["optim.adamw_s"] = total["optim.adamw"]
    out["optim.clip_s"] = total["optim.clip"]
    out["optim.param_count"] = counts["optim.param_count"]
    out["optim.adamw_gbps"] = (7 * 8 * counts["optim.param_count"] * adamw_steps / 1e9
                               / total["optim.adamw"]) if adamw_steps else 0.0

    reports = calls["interpret.ig"]
    points = sum(1 for name, _, _, parent in spans
                 if name == "tensor.backward" and parent is not None
                 and spans[parent][0] == "interpret.ig")
    out["interpret.ig_points"] = points / reports if reports else 0.0
    out["interpret.ig_point_s"] = total["interpret.ig"] / points if points else 0.0

    out["metrics.report_s"] = total["metrics.report"]
    return out
