"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with its measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.

Budgeted runtimes assume a single CPU core (thread pinning in conftest).
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import check_many_params
from switchtext import (EncoderModel, ModelConfig, RunConfig, Tensor,
                        count_parameters, finite_difference_check,
                        generate_synthetic_corpus)
from switchtext import tensor as T
from switchtext.attention import FfnParams, MultiHeadParams, multi_head_attention, position_wise_ffn
from switchtext.cli import main as cli_main
from switchtext.interpret import integrated_gradients, path_integrated_gradients
from switchtext.layers import LayerNormParams, LinearParams, layer_norm, linear
from switchtext.metrics import ConfusionMatrix, classification_metrics, confusion
from switchtext.model import file_digest
from switchtext.moe import SwitchParams, gate_probs, load_balance_loss, switch_forward
from switchtext.training import train, weighted_cross_entropy

rng = np.random.default_rng(0xACCE)


def report(n, name, detail):
    print(f"\nCRITERION {n} PASS ({name}): {detail}")


class TestCriterion1GradientCorrectness:
    def test_every_layer_passes_finite_difference(self):
        started = time.perf_counter()
        worst = 0.0
        gen = np.random.default_rng(12)

        # linear
        lin = LinearParams.create(6, 5, gen)
        x_fixed = Tensor(gen.standard_normal((3, 6)))
        coeffs = Tensor(gen.standard_normal((3, 5)))
        worst = max(worst, check_many_params(
            lambda: T.sum_(T.mul(linear(x_fixed, lin), coeffs)),
            [(lin, "weight"), (lin, "bias")]))

        # layer norm
        ln = LayerNormParams.create(6)
        ln_coeffs = Tensor(gen.standard_normal((3, 6)))
        worst = max(worst, check_many_params(
            lambda: T.sum_(T.mul(layer_norm(x_fixed, ln), ln_coeffs)),
            [(ln, "gamma"), (ln, "beta")]))
        worst = max(worst, finite_difference_check(
            lambda t: T.sum_(T.mul(layer_norm(t, ln), ln_coeffs)),
            Tensor(gen.standard_normal((3, 6)))))

        # standalone attention head: gradients through q, k, v
        from switchtext.attention import scaled_dot_product_attention

        kv = Tensor(gen.standard_normal((4, 4)))
        vv = Tensor(gen.standard_normal((4, 4)))
        head_mask = np.array([True, True, True, False])
        head_coeffs = Tensor(gen.standard_normal((4, 4)))
        worst = max(worst, finite_difference_check(
            lambda t: T.sum_(T.mul(scaled_dot_product_attention(t, kv, vv, head_mask),
                                   head_coeffs)),
            Tensor(gen.standard_normal((4, 4)))))
        worst = max(worst, finite_difference_check(
            lambda t: T.sum_(T.mul(scaled_dot_product_attention(kv, t, vv, head_mask),
                                   head_coeffs)),
            Tensor(gen.standard_normal((4, 4)))))
        worst = max(worst, finite_difference_check(
            lambda t: T.sum_(T.mul(scaled_dot_product_attention(kv, vv, t, head_mask),
                                   head_coeffs)),
            Tensor(gen.standard_normal((4, 4)))))

        # multi-head + FFN (d_model <= 8, len <= 4)
        mha = MultiHeadParams.create(8, 2, gen)
        xa = Tensor(gen.standard_normal((4, 8)))
        mask = np.array([True, True, True, False])
        mha_coeffs = Tensor(gen.standard_normal((4, 8)))
        worst = max(worst, check_many_params(
            lambda: T.sum_(T.mul(multi_head_attention(xa, mha, mask), mha_coeffs)),
            [(mha, "wq"), (mha, "wk"), (mha, "wv"), (mha.wo, "weight"), (mha.wo, "bias")]))

        ffn = FfnParams.create(8, 16, gen)
        worst = max(worst, check_many_params(
            lambda: T.sum_(T.mul(position_wise_ffn(xa, ffn), mha_coeffs)),
            [(ffn.lin1, "weight"), (ffn.lin1, "bias"), (ffn.lin2, "weight"), (ffn.lin2, "bias")]))

        # switch layer with routing fixed (large capacity, clear margins)
        sw = SwitchParams.create(8, 16, 2, gen, capacity_factor=8.0)
        xs = Tensor(gen.standard_normal((4, 8)))
        probs = gate_probs(xs, sw.gate).data
        assert np.abs(probs[:, 0] - probs[:, 1]).min() > 1e-3
        sw_coeffs = Tensor(gen.standard_normal((4, 8)))

        def switch_loss():
            out, _, aux = switch_forward(xs, sw, training=True)
            return T.add(T.sum_(T.mul(out, sw_coeffs)), T.mul(aux, 0.01))

        worst = max(worst, check_many_params(switch_loss, [
            (sw.gate, "weight"), (sw.gate, "bias"),
            (sw.experts[0].lin1, "weight"), (sw.experts[1].lin2, "weight"),
        ]))

        # full model loss, both variants
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        labels = np.array([1, 0])
        for variant in ("dense", "switch"):
            cfg = ModelConfig(variant=variant, num_layers=2, num_heads=2, num_experts=2,
                              d_model=8, d_ff=16, vocab_size=10, max_len=4,
                              dropout=0.0, capacity_factor=8.0, seed=6)
            model = EncoderModel.build(cfg)

            def model_loss():
                result = model.forward(ids, ids != 0, training=True)
                ce = weighted_cross_entropy(result.logits, labels)
                return T.add(ce, T.mul(result.aux_loss, 0.01))

            targets = [
                (model.embeddings, "table"), (model.blocks[0].mha, "wq"),
                (model.blocks[1].mha.wo, "weight"), (model.blocks[0].norm1, "gamma"),
                (model.head, "weight"),
            ]
            if variant == "switch":
                targets += [(model.blocks[0].mixer.gate, "weight"),
                            (model.blocks[1].mixer.experts[0].lin1, "weight")]
            else:
                targets += [(model.blocks[0].mixer.lin1, "weight")]
            worst = max(worst, check_many_params(model_loss, targets))

        elapsed = time.perf_counter() - started
        assert worst < 1e-4
        assert elapsed < 60.0
        report(1, "gradient correctness",
               f"max relative error {worst:.3g} over all layers and both full models, {elapsed:.1f}s")


class TestCriterion2MoeEquivalences:
    def test_single_expert_switch_matches_dense(self):
        common = dict(num_layers=2, num_heads=2, d_model=8, d_ff=16,
                      vocab_size=12, max_len=8, dropout=0.0, seed=3)
        dense = EncoderModel.build(ModelConfig(variant="dense", **common))
        switch = EncoderModel.build(ModelConfig(variant="switch", num_experts=1, **common))
        by_name = dict(switch.parameters())
        for name, p in dense.parameters():
            by_name[name.replace(".mixer.", ".mixer.experts.0.")].data = p.data.copy()
        ids = np.array([[2, 3, 4, 5], [6, 7, 0, 0]])
        mask = ids != 0
        diff = np.abs(dense.forward(ids, mask).logits.data
                      - switch.forward(ids, mask).logits.data).max()
        assert diff <= 1e-10

        # Top-1 routing at inference with one gate forced to probability exactly 1.
        sw = SwitchParams.create(6, 12, 3, np.random.default_rng(5))
        sw.gate.weight.data = np.zeros_like(sw.gate.weight.data)
        sw.gate.bias.data = np.array([0.0, -1e30, -1e30])
        x = rng.standard_normal((5, 6))
        out, _, _ = switch_forward(Tensor(x), sw, training=False)
        expert_out = position_wise_ffn(Tensor(x), sw.experts[0]).data
        np.testing.assert_array_equal(out.data, expert_out)
        report(2, "mixture equivalences",
               f"switch(E=1) vs dense max logit diff {diff:.2e}; forced-gate top-1 exact")


class TestCriterion3RoutingInvariants:
    def test_gate_dispatch_and_balance(self):
        gate = LinearParams(Tensor(rng.standard_normal((8, 4))),
                            Tensor(rng.standard_normal(4)))
        probs = gate_probs(Tensor(rng.standard_normal((64, 8))), gate)
        sum_err = np.abs(probs.data.sum(axis=1) - 1.0).max()
        assert sum_err <= 1e-12

        sw = SwitchParams.create(8, 16, 4, np.random.default_rng(2), capacity_factor=16.0)
        out, record, _ = switch_forward(Tensor(rng.standard_normal((32, 8))), sw)
        assert record.counts.sum() + record.overflow == 32  # exactly one expert per token
        assert len(record.chosen) == 32

        balanced = load_balance_loss(Tensor(np.full((8, 4), 0.25)),
                                     np.array([0, 1, 2, 3] * 2), 4).item()
        assert balanced == 1.0
        skew = np.full((8, 4), 0.05)
        skew[:, 0] = 0.85
        unbalanced = load_balance_loss(Tensor(skew), np.zeros(8, dtype=int), 4).item()
        assert unbalanced > 1.0
        report(3, "routing invariants",
               f"gate row-sum error {sum_err:.1e}; balanced aux {balanced}; "
               f"unbalanced aux {unbalanced:.3f}")


class TestCriterion4MetricsOracle:
    def test_published_confusion_counts(self):
        labels = np.array([1] * 253 + [0] * 34 + [1] * 38 + [0] * 219)
        preds = np.array([1] * 253 + [1] * 34 + [0] * 38 + [0] * 219)
        cm = confusion(labels, preds)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (253, 219, 34, 38)
        rep = classification_metrics(cm)
        assert abs(rep.accuracy - 472 / 544) <= 1e-4
        assert round(rep.accuracy, 2) == 0.87
        macro = classification_metrics(cm, averaging="macro")
        report(4, "metrics oracle",
               f"accuracy {rep.accuracy:.4f} (= 472/544); positive-class P/R "
               f"{rep.precision:.4f}/{rep.recall:.4f}; macro P/R "
               f"{macro.precision:.4f}/{macro.recall:.4f}")


class TestCriterion5AttributionCompleteness:
    def test_linear_oracle_and_trained_completeness(self, smooth_toy_run):
        started = time.perf_counter()
        w = rng.standard_normal((6, 3))
        x = rng.standard_normal((6, 3))
        worst_linear = 0.0
        for steps in (8, 64, 256):
            attr, _, residual = path_integrated_gradients(
                lambda t: T.sum_(T.mul(t, Tensor(w))), x, np.zeros_like(x), steps)
            worst_linear = max(worst_linear, np.abs(attr - w * x).max(), abs(residual))
        assert worst_linear <= 1e-12

        model, encoded = smooth_toy_run.model, smooth_toy_run.encoded["val"]
        worst_ratio = 0.0
        checked = 0
        for example in encoded:
            rep = integrated_gradients(model, example.ids, np.ones(len(example.ids), bool),
                                       target_class=example.label, num_steps=256)
            if abs(rep.output_delta) < 1.0:
                continue
            ratio = abs(rep.completeness_residual) / abs(rep.output_delta)
            worst_ratio = max(worst_ratio, ratio)
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 5
        assert worst_ratio <= 0.01
        assert elapsed < 60.0
        report(5, "attribution completeness",
               f"linear oracle exact to {worst_linear:.1e} at any step count; trained-model "
               f"residual ratio max {worst_ratio:.3%} over {checked} examples, {elapsed:.1f}s")


class TestCriterion6EndToEndTraining:
    def test_both_variants_reach_target(self, tmp_path):
        started = time.perf_counter()
        corpus = generate_synthetic_corpus(2000, positive_fraction=0.36, noise=0.05, seed=7)
        reached = {}
        for variant in ("dense", "switch"):
            config = RunConfig(
                variant=variant, num_layers=4, num_heads=4, num_experts=4,
                d_model=64, d_ff=256, max_len=256, dropout=0.35,
                adam_eps=5e-6, batch_size=16, grad_accumulation=1,
                peak_lr=1e-3, epochs=30, early_stopping=False,
                stop_at_val_accuracy=0.90, seed=1,
            )
            result = train(config, corpus, out_dir=None, quiet=True)
            best = max(row["val"].accuracy for row in result.history)
            reached[variant] = (best, len(result.history))
            assert best >= 0.90, f"{variant}: best val accuracy {best}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(6, "end-to-end training",
               "; ".join(f"{v}: val acc {acc:.3f} in {ep} epochs"
                         for v, (acc, ep) in reached.items()) + f"; total {elapsed:.0f}s")


class TestCriterion7GeneralizationGap:
    def test_long_training_overfits_small_split(self):
        corpus = generate_synthetic_corpus(250, positive_fraction=0.4, noise=0.15,
                                           seed=21, min_tokens=10, max_tokens=30)
        config = RunConfig(
            variant="switch", num_layers=2, num_heads=2, num_experts=2,
            d_model=32, d_ff=128, max_len=64, dropout=0.0, seed=3,
            epochs=60, batch_size=16, grad_accumulation=1, peak_lr=2e-3,
            early_stopping=False, min_frequency=1,
        )
        result = train(config, corpus, out_dir=None, quiet=True)
        assert len(result.encoded["train"]) <= 200
        train_acc = [row["train"].accuracy for row in result.history]
        val_acc = [row["val"].accuracy for row in result.history]
        val_loss = [row["val"].loss for row in result.history]
        assert train_acc[-1] >= 0.98
        assert val_acc[-1] <= train_acc[-1] - 0.05
        gap_rows = len(result.history)
        assert gap_rows == 60  # gap series length == epochs run
        i_min = int(np.argmin(val_loss))
        tail = val_loss[i_min + 1:]
        assert tail, "validation loss minimum sits at the final epoch"
        assert max(tail) > val_loss[i_min]
        assert int(np.argmax(val_loss)) > i_min
        report(7, "generalization gap",
               f"train acc {train_acc[-1]:.3f} vs val {val_acc[-1]:.3f}; val-loss min "
               f"{val_loss[i_min]:.3f} at epoch {i_min + 1} rising to {max(tail):.3f}")


class TestCriterion8ParameterAccounting:
    @staticmethod
    def closed_form(cfg: ModelConfig) -> dict:
        d, f, heads = cfg.d_model, cfg.d_ff, cfg.num_heads
        d_k = d // heads
        embeddings = cfg.vocab_size * d + cfg.max_len * d
        mha = 3 * heads * d * d_k + (heads * d_k * d + d)
        norms = 4 * d
        ffn = d * f + f + f * d + d
        gate = d * cfg.num_experts + cfg.num_experts
        block = mha + norms + (ffn if cfg.variant == "dense"
                               else gate + cfg.num_experts * ffn)
        head = d * cfg.num_classes + cfg.num_classes
        total = embeddings + cfg.num_layers * block + head
        return {"total": total, "core": total - cfg.vocab_size * d,
                "ffn": ffn, "gate": gate}

    def test_counts_and_calibration(self):
        calibrated = dict(num_layers=4, num_heads=4, num_experts=4, d_model=200,
                          d_ff=800, vocab_size=28000, max_len=256)
        reports = {}
        for variant in ("dense", "switch"):
            cfg = ModelConfig(variant=variant, **calibrated)
            rep = count_parameters(EncoderModel.build(cfg))
            expected = self.closed_form(cfg)
            assert rep.total == expected["total"]
            assert rep.core_total == expected["core"]
            reports[variant] = rep

        forms = self.closed_form(ModelConfig(variant="switch", **calibrated))
        diff = reports["switch"].total - reports["dense"].total
        assert diff == 4 * (3 * forms["ffn"] + forms["gate"])

        # Published budgets: 2.3M dense, 5.7M switch, +-20%, on the
        # vocabulary-independent core count.
        dense_core = reports["dense"].core_total
        switch_core = reports["switch"].core_total
        assert 0.8 * 2.3e6 <= dense_core <= 1.2 * 2.3e6
        assert 0.8 * 5.7e6 <= switch_core <= 1.2 * 5.7e6
        report(8, "parameter accounting",
               f"dense {dense_core:,} vs 2.3M ({dense_core / 2.3e6 - 1:+.1%}); "
               f"switch {switch_core:,} vs 5.7M ({switch_core / 5.7e6 - 1:+.1%}); "
               f"difference identity exact")


class TestCriterion9Determinism:
    def test_repeated_commands_byte_identical(self, tmp_path):
        data = tmp_path / "corpus.jsonl"
        assert cli_main(["gen-data", "--n", "120", "--noise", "0.0",
                         "--seed", "9", "--out", str(data)]) == 0
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli_main([
                "train", "--data-path", str(data), "--output-dir", str(out),
                "--variant", "switch", "--num-layers", "1", "--num-heads", "2",
                "--num-experts", "2", "--d-model", "16", "--d-ff", "32",
                "--max-len", "32", "--dropout", "0.1", "--epochs", "3",
                "--grad-accumulation", "1", "--min-frequency", "1",
                "--no-early-stopping", "--seed", "11",
            ])
            assert code == 0
            digests.append(file_digest(out / "best.ckpt"))
        for artifact in ("train_log.tsv", "gap.tsv", "routing.tsv",
                         "report_val.tsv", "report_val.json", "manifest.json"):
            a = (tmp_path / "r1" / artifact).read_bytes()
            b = (tmp_path / "r2" / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
        assert digests[0] == digests[1]

        evals = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert cli_main(["eval", "--checkpoint", str(tmp_path / "r1" / "best.ckpt"),
                             "--data", str(data), "--split", "test",
                             "--output-dir", str(out)]) == 0
            evals.append((out / "report_test.json").read_bytes())
        assert evals[0] == evals[1]
        report(9, "determinism",
               f"train logs, reports, manifests byte-identical; checkpoint sha256 "
               f"{digests[0][:12]}… reproduced; eval reports identical")
