"""Tests of the benchmark's own pieces.

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import switchtext.model  # noqa: E402
import switchtext.tensor  # noqa: E402
from switchtext.model import EncoderModel, ModelConfig  # noqa: E402
from switchtext.tensor import Tape  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_a_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["other_root", 20.0, 21.5, None],
    ]
    own = tracing.self_times(spans)
    assert own == [3.0, 2.0, 4.0, 1.0, 1.5]
    # Self times partition the root intervals: nothing is counted twice.
    assert sum(own) == pytest.approx(10.0 + 1.5)
    assert tracing.partition_error(spans) == pytest.approx(0.0)


def test_tracer_spans_nest_and_close_in_order():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.innermost() == "inner"
            assert tracer.inside("outer")
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    first = tracer.open("x")
    tracer.open("y")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def _tiny_model():
    return EncoderModel.build(ModelConfig(variant="switch", num_layers=1, num_heads=2,
                                          num_experts=2, d_model=8, d_ff=16, vocab_size=12,
                                          max_len=8, dropout=0.1, seed=3))


def _forward_backward(model):
    ids = np.array([[2, 3, 4, 5], [6, 7, 0, 0]])
    mask = ids != 0
    with Tape() as tape:
        result = model.forward(ids, mask, training=True)
        loss = switchtext.tensor.sum_(result.logits)
    tape.backward(loss)
    return result.logits.data, [p.grad.copy() for _, p in model.parameters() if p.grad is not None]


def test_wrappers_install_trace_and_come_off():
    originals = {(id(o), a): tracing._raw(o, a) for o, a, _, _ in tracing._targets()}
    plain_logits, plain_grads = _forward_backward(_tiny_model())

    tracer = tracing.Tracer()
    with tracing.installed(tracer) as saved:
        assert switchtext.model.multi_head_attention is not originals[(id(switchtext.model), "multi_head_attention")]
        assert isinstance(EncoderModel.__dict__["build"], staticmethod)
        traced_logits, traced_grads = _forward_backward(_tiny_model())
    assert tracing.wrappers_removed(saved)
    assert all(tracing._raw(o, a) is originals[(id(o), a)] for o, a, _, _ in tracing._targets())

    # Wrapping changes no arithmetic.
    assert np.array_equal(plain_logits, traced_logits)
    assert all(np.array_equal(a, b) for a, b in zip(plain_grads, traced_grads, strict=True))

    names = {s[0] for s in tracer.spans}
    assert {"model.build", "model.forward", "attention.mha", "moe.switch", "moe.gate",
            "moe.experts", "layers.layer_norm", "tensor.backward"} <= names
    assert tracer.vjp_s["attention.mha"] > 0 and tracer.vjp_s["moe.experts"] > 0
    assert tracer.counts["tensor.matmul_fwd_flop"] > 0 and tracer.counts["tensor.matmul_bwd_flop"] > 0
    # Backward time splits into vjps tagged by module plus sweep overhead.
    backward = sum(e - s for n, s, e, _ in tracer.spans if n == "tensor.backward")
    assert sum(tracer.vjp_s.values()) <= backward


def test_wrappers_come_off_when_the_block_raises():
    with pytest.raises(ValueError):
        with tracing.installed(tracing.Tracer()) as saved:
            raise ValueError("boom")
    assert saved and tracing.wrappers_removed(saved)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 201))
    assert workloads.percentile(samples, 0.95) == 190
    assert workloads.percentile(samples, 0.50) == 100
    with pytest.raises(ValueError):
        workloads.percentile(samples[:199], 0.95)
    assert workloads.percentile(range(20), 0.50) == 9
    with pytest.raises(ValueError):
        workloads.percentile(range(19), 0.50)


def test_ledger_counts_package_errors_and_failed_checks():
    from switchtext.errors import NumericError

    def boom():
        raise NumericError("nan")

    ledger = workloads.Ledger()
    assert ledger.call("ok", lambda: 3, check=lambda r: r == 3)[0] == 3
    assert ledger.call("bad output", lambda: 4, check=lambda r: r == 3)[0] == 4
    assert ledger.call("raises", boom)[0] is None
    ledger.check(True, "fine")
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_every_metric_name_is_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(tracing.module_metrics(tracing.Tracer()))
    emitted |= {"peak.matmul_gflops", "trace.untraced_s", "trace.traced_s", "trace.overhead_frac"}
    assert emitted == set(run.per_layer_units())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
