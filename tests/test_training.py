"""Training-engine tests: loss composition, evaluation plumbing, run
determinism, early-stopping restore, and artifact layout."""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from switchtext import RunConfig, Tensor, generate_synthetic_corpus
from switchtext import tensor as T
from switchtext.errors import ConfigError
from switchtext.model import ModelConfig, file_digest, load_checkpoint
from switchtext.tensor import Tape
from switchtext.training import (EncodedExample, dataset_digest, encode_examples,
                                 evaluate, make_batch, total_loss, train,
                                 weighted_cross_entropy)

rng = np.random.default_rng(808)


def quick_config(**kw):
    defaults = dict(
        variant="switch", num_layers=1, num_heads=2, num_experts=2,
        d_model=16, d_ff=32, max_len=32, dropout=0.0, seed=7,
        epochs=3, batch_size=16, grad_accumulation=1, peak_lr=1e-3,
        early_stopping=False, min_frequency=1,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestLoss:
    def test_uniform_weights_match_plain_mean(self):
        logits = Tensor(rng.standard_normal((6, 2)))
        labels = rng.integers(0, 2, 6)
        plain = weighted_cross_entropy(logits, labels, None)
        weighted = weighted_cross_entropy(logits, labels, np.array([1.0, 1.0]))
        np.testing.assert_allclose(plain.item(), weighted.item(), atol=1e-15)
        logp = T.log_softmax(logits, axis=1).data
        expected = -logp[np.arange(6), labels].mean()
        np.testing.assert_allclose(plain.item(), expected, atol=1e-12)

    def test_class_weighting_equalizes_expectation(self):
        logits = Tensor(np.zeros((4, 2)))
        labels = np.array([0, 0, 0, 1])
        weights = np.array([4 / 6, 4 / 2])  # N/(2*N_c)
        loss = weighted_cross_entropy(logits, labels, weights)
        # All logits equal: per-example CE is log 2 regardless of weights.
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_total_loss_aux_weight_zero_is_pure_ce(self):
        logits = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        labels = np.array([0, 1, 1, 0])
        aux = Tensor(5.0)
        ce_only, ce_part = total_loss(logits, labels, aux, aux_weight=0.0)
        with_aux, ce_term = total_loss(logits, labels, aux, aux_weight=0.01)
        ce = weighted_cross_entropy(logits, labels)
        assert ce_only.item() == ce.item() == ce_part.item() == ce_term.item()
        np.testing.assert_allclose(with_aux.item(), ce.item() + 0.05, atol=1e-12)


class TestEvaluate:
    @pytest.mark.parametrize("run", ["toy_run", "smooth_toy_run"])
    def test_eval_invariant_to_batch_size(self, run, request):
        result = request.getfixturevalue(run)
        b = evaluate(result.model, result.encoded["val"], batch_size=64)
        for batch_size in (1, 7):
            a = evaluate(result.model, result.encoded["val"], batch_size=batch_size)
            # Matrix shapes differ across batchings, so BLAS summation order can
            # shift the last bit; identity holds at float precision.
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
            np.testing.assert_allclose(a.report.loss, b.report.loss, atol=1e-12)
            assert a.report.accuracy == b.report.accuracy

    def test_report_fields_complete(self, toy_run):
        out = evaluate(toy_run.model, toy_run.encoded["val"])
        d = out.report.to_dict()
        assert set(d) >= {"accuracy", "precision", "recall", "f1", "auc", "loss", "confusion"}

    def test_make_batch_pads_to_chunk_max(self):
        chunk = [
            EncodedExample(0, np.array([2, 3]), 1, "a b"),
            EncodedExample(1, np.array([4]), 0, "c"),
        ]
        ids, mask, labels = make_batch(chunk)
        assert ids.shape == (2, 2)
        np.testing.assert_array_equal(ids[1], [4, 0])
        np.testing.assert_array_equal(mask, [[True, True], [True, False]])
        np.testing.assert_array_equal(labels, [1, 0])


class TestRunConfig:
    def test_violation_listing_is_exhaustive(self):
        bad = quick_config(epochs=-1, batch_size=0, warmup_frac=2.0, patience=0)
        problems = bad.violations()
        joined = " ".join(problems)
        for token in ("epochs", "batch_size", "warmup_frac", "patience"):
            assert token in joined
        with pytest.raises(ConfigError):
            bad.validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.from_dict({"mystery": 1})

    def test_model_config_carries_every_shared_field(self):
        run_fields = {f.name for f in fields(RunConfig)}
        changed = {f.name: f.default + 1 for f in fields(ModelConfig)
                   if f.name in run_fields and f.name not in ("variant", "pooling")}
        changed.update(variant="dense", pooling="first")
        assert len(changed) >= 12
        built = RunConfig(**changed).model_config(vocab_size=37)
        assert built.vocab_size == 37
        for name, value in changed.items():
            assert getattr(built, name) == value != getattr(ModelConfig(), name), name

    def test_missing_path_flagged_when_checked(self):
        cfg = quick_config(data_path="/nonexistent/file.jsonl")
        assert any("data_path" in p for p in cfg.violations(check_paths=True))
        assert not cfg.violations(check_paths=False)


class TestTrainRuns:
    def test_bit_reproducible_runs(self, tmp_path):
        corpus = generate_synthetic_corpus(120, seed=3, min_tokens=8, max_tokens=20)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            train(quick_config(epochs=2), corpus, out_dir=str(out), quiet=True)
            outs.append(out)
        for artifact in ("train_log.tsv", "gap.tsv", "routing.tsv", "manifest.json",
                         "report_val.tsv", "report_val.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact
        assert file_digest(outs[0] / "best.ckpt") == file_digest(outs[1] / "best.ckpt")

    def test_seed_changes_outcome(self, tmp_path):
        corpus = generate_synthetic_corpus(120, seed=3, min_tokens=8, max_tokens=20)
        r1 = train(quick_config(epochs=1, seed=1), corpus, out_dir=None, quiet=True)
        r2 = train(quick_config(epochs=1, seed=2), corpus, out_dir=None, quiet=True)
        assert r1.history[0]["train"].loss != r2.history[0]["train"].loss

    def test_aux_weight_zero_matches_manual_ce_loop(self, tmp_path):
        corpus = generate_synthetic_corpus(80, seed=9, min_tokens=8, max_tokens=16)
        config = quick_config(epochs=2, aux_loss_weight=0.0, grad_clip=0.0,
                              class_weighting=False)
        result = train(config, corpus, out_dir=None, quiet=True)

        # Manual loop: identical schedule and shuffling, loss = plain CE.
        from switchtext.data import build_vocab, split_dataset
        from switchtext.model import EncoderModel
        from switchtext.optim import AdamW, ScheduleConfig, cosine_warmup_lr
        import math

        splits = split_dataset(corpus, seed=config.split_seed, stratify=config.stratify)
        vocab = build_vocab((corpus.examples[i].text for i in splits["train"]),
                            min_frequency=1)
        encoded = encode_examples([corpus.examples[i] for i in splits["train"]],
                                  vocab, config.max_len)
        model = EncoderModel.build(config.model_config(vocab_size=len(vocab)))
        params = model.parameters()
        opt = AdamW(params, eps=config.adam_eps, weight_decay=config.weight_decay)
        steps_per_epoch = math.ceil(len(encoded) / config.batch_size)
        schedule = ScheduleConfig(peak_lr=config.peak_lr, min_lr=config.min_lr,
                                  warmup_steps=min(int(0.1 * steps_per_epoch * 2),
                                                   steps_per_epoch * 2 - 1),
                                  total_steps=steps_per_epoch * 2)
        shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5F)))
        step = 0
        for _ in range(2):
            order = shuffle_rng.permutation(len(encoded))
            for start in range(0, len(encoded), config.batch_size):
                chunk = [encoded[i] for i in order[start:start + config.batch_size]]
                ids, mask, labels = make_batch(chunk)
                with Tape() as tape:
                    res = model.forward(ids, mask, training=True)
                    loss = weighted_cross_entropy(res.logits, labels, None)
                tape.backward(loss)
                opt.step(cosine_warmup_lr(step, schedule))
                opt.zero_grad()
                step += 1
        for (name, p), (_, q) in zip(result.model.parameters(), model.parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_early_stopping_restores_best(self, tmp_path):
        corpus = generate_synthetic_corpus(150, seed=4, noise=0.15,
                                           min_tokens=8, max_tokens=20)
        out = tmp_path / "es"
        out.mkdir()
        config = quick_config(epochs=20, early_stopping=True, patience=3,
                              peak_lr=3e-3, dropout=0.0)
        result = train(config, corpus, out_dir=str(out), quiet=True)
        assert result.best_epoch is not None
        val_losses = [row["val"].loss for row in result.history]
        best_logged = min(val_losses)
        assert result.final_val.loss == best_logged
        assert result.history[result.best_epoch - 1]["val"].loss == best_logged

    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path, capsys):
        corpus = generate_synthetic_corpus(60, seed=5, min_tokens=6, max_tokens=12)
        out = tmp_path / "zero"
        out.mkdir()
        result = train(quick_config(epochs=0), corpus, out_dir=str(out), quiet=False)
        assert "warning" in capsys.readouterr().out
        assert os.path.exists(result.checkpoint_path)
        model, vocab, extra = load_checkpoint(result.checkpoint_path)
        assert extra["epoch"] == 0
        assert result.history == []

    def test_stop_at_accuracy_target(self):
        corpus = generate_synthetic_corpus(160, seed=6, noise=0.0,
                                           min_tokens=8, max_tokens=16)
        config = quick_config(epochs=40, stop_at_val_accuracy=0.8, peak_lr=3e-3)
        result = train(config, corpus, out_dir=None, quiet=True)
        assert len(result.history) < 40
        assert result.history[-1]["val"].accuracy >= 0.8

    def test_artifact_columns(self, tmp_path):
        corpus = generate_synthetic_corpus(80, seed=7, min_tokens=6, max_tokens=12)
        out = tmp_path / "cols"
        out.mkdir()
        train(quick_config(epochs=2), corpus, out_dir=str(out), quiet=True)
        log_lines = (out / "train_log.tsv").read_text().strip().split("\n")
        assert log_lines[0] == "epoch\tsplit\tloss\taccuracy\tprecision\trecall\tlr\taux_loss"
        assert len(log_lines) == 1 + 2 * 2  # header + 2 rows per epoch
        gap_lines = (out / "gap.tsv").read_text().strip().split("\n")
        assert len(gap_lines) == 1 + 2
        routing_lines = (out / "routing.tsv").read_text().strip().split("\n")
        assert len(routing_lines) == 1 + 2 * 1 * 2  # epochs * layers * experts
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_digest"] == dataset_digest(corpus)
        assert {"config", "config_digest", "seed", "code_version"} <= set(manifest)

    def test_dense_run_has_empty_routing(self, tmp_path):
        corpus = generate_synthetic_corpus(60, seed=8, min_tokens=6, max_tokens=12)
        out = tmp_path / "dense"
        out.mkdir()
        train(quick_config(variant="dense", epochs=1), corpus, out_dir=str(out), quiet=True)
        lines = (out / "routing.tsv").read_text().strip().split("\n")
        assert lines == ["epoch\tlayer\texpert\ttoken_fraction\toverflow_fraction"]
