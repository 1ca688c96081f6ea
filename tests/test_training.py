"""Training-engine tests: loss composition, evaluation plumbing, run
determinism, early-stopping restore, and artifact layout."""

import json
import os
import weakref
from dataclasses import fields

import numpy as np
import pytest

from helpers import file_digest, penalty
from switchtext import AdamW, RunConfig, Tensor, generate_synthetic_corpus
from switchtext import tensor as T
from switchtext import training
from switchtext.data import (FRENCH_STOPWORDS, Example, LabeledDataset, build_vocab,
                             class_weights)
from switchtext.errors import ConfigError, ContractError, DataError, NumericError
from switchtext.model import EncoderModel, ForwardResult, ModelConfig, load_checkpoint
from switchtext.moe import RoutingRecord
from switchtext.tensor import Tape
from switchtext.training import (BatchTally, EncodedExample, dataset_digest, encode_examples,
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

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_the_classes_rejected(self, label):
        # A label is a column index of the logits: -1 must not score the
        # last class, and 2 must not escape as a bare IndexError.
        logits = Tensor([[0.5, -0.5], [1.0, 2.0], [0.0, 0.3]])
        with pytest.raises(ContractError, match="out of range"):
            weighted_cross_entropy(logits, np.array([0, label, 1]))

    def test_total_loss_aux_weight_zero_is_pure_ce(self):
        logits = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        labels = np.array([0, 1, 1, 0])
        # Two routed layers with penalties 5 and 5 (E * f_0 * P_0 = 5 * 1 * 1).
        probs = np.zeros((3, 5))
        probs[:, 0] = 1.0
        record = RoutingRecord(probs=Tensor(probs), capacity=3)
        result = ForwardResult(logits=logits, hidden=[], routing=[record, record])
        ce_only, ce_part, aux = total_loss(result, labels, aux_weight=0.0)
        with_aux, ce_term, _ = total_loss(result, labels, aux_weight=0.01)
        ce = weighted_cross_entropy(logits, labels)
        assert ce_only.item() == ce.item() == ce_part.item() == ce_term.item()
        assert aux.item() == 5.0
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
            # The penalty is formed once from counts pooled over the batches.
            np.testing.assert_allclose(a.aux_loss, b.aux_loss, rtol=0, atol=1e-12)

    def test_aux_loss_is_the_penalty_of_the_pooled_tokens(self):
        # Two batches through two switch layers: the tally's aux loss is the
        # layers' mean penalty over all the tokens at once, not a mean of
        # per-batch penalties.
        model = EncoderModel.build(ModelConfig(variant="switch", num_layers=2, num_heads=2,
                                               num_experts=3, d_model=8, d_ff=16, vocab_size=20,
                                               max_len=8, dropout=0.0, seed=1))
        tally, routing = BatchTally(), []
        for ids in (np.array([[2, 3, 4], [5, 6, 0]]), np.array([[7, 8, 9, 10]])):
            labels = np.zeros(len(ids), dtype=int)
            result = model.forward(ids, ids != 0)
            tally.add(result, labels, weighted_cross_entropy(result.logits, labels))
            routing.append(result.routing)
        pooled = [RoutingRecord(probs=Tensor(np.concatenate([r[layer].probs.data for r in routing])),
                                capacity=0)
                  for layer in range(2)]
        want = np.mean([penalty(record).item() for record in pooled])
        assert tally.outcome().aux_loss == pytest.approx(want, rel=0, abs=1e-15)

    def test_one_batch_aux_loss_is_the_objective_penalty(self):
        # Over a single batch the tally's pooled aux loss is the penalty
        # ``total_loss`` adds to the objective, to the bit.
        model = EncoderModel.build(ModelConfig(variant="switch", num_layers=2, num_heads=2,
                                               num_experts=3, d_model=8, d_ff=16, vocab_size=20,
                                               max_len=8, dropout=0.0, seed=1))
        ids = np.array([[2, 3, 4, 11], [5, 6, 0, 0], [7, 8, 9, 0]])
        labels = np.array([0, 1, 0])
        result = model.forward(ids, ids != 0)
        _, ce, aux = total_loss(result, labels, aux_weight=0.01)
        tally = BatchTally()
        tally.add(result, labels, ce)
        assert tally.outcome().aux_loss == aux.item()

    @pytest.mark.parametrize("run", ["toy_run", "smooth_toy_run"])
    def test_eval_follows_a_permutation_of_the_examples(self, run, request):
        result = request.getfixturevalue(run)
        val = result.encoded["val"]
        perm = np.random.default_rng(3).permutation(len(val))
        a = evaluate(result.model, val, batch_size=7)
        b = evaluate(result.model, [val[i] for i in perm], batch_size=7)
        # Equal lengths keep their input order, so batch mates can change.
        np.testing.assert_array_equal(b.predictions, a.predictions[perm])
        np.testing.assert_allclose(b.scores, a.scores[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.report.loss, a.report.loss, rtol=0, atol=1e-12)

    def test_eval_batches_in_length_order(self, toy_run, monkeypatch):
        val = toy_run.encoded["val"]
        padded = []

        def make_batch_counting_padding(chunk):
            ids, mask, labels = make_batch(chunk)
            padded.append(int((~mask).sum()))
            return ids, mask, labels

        monkeypatch.setattr(training, "make_batch", make_batch_counting_padding)
        evaluate(toy_run.model, val, batch_size=7)

        def padding(lengths):
            chunks = [lengths[i:i + 7] for i in range(0, len(lengths), 7)]
            return [max(c) * len(c) - sum(c) for c in chunks]

        lengths = [len(e.ids) for e in val]
        assert padded == padding(sorted(lengths))
        assert sum(padded) < sum(padding(lengths))

    def test_report_fields_complete(self, toy_run):
        out = evaluate(toy_run.model, toy_run.encoded["val"])
        d = out.report.to_dict()
        assert set(d) >= {"accuracy", "precision", "recall", "f1", "auc", "loss", "confusion"}

    def test_make_batch_pads_to_chunk_max(self):
        chunk = [
            EncodedExample(0, np.array([2, 3]), 1),
            EncodedExample(1, np.array([4]), 0),
        ]
        ids, mask, labels = make_batch(chunk)
        assert ids.shape == (2, 2)
        np.testing.assert_array_equal(ids[1], [4, 0])
        np.testing.assert_array_equal(mask, [[True, True], [True, False]])
        np.testing.assert_array_equal(labels, [1, 0])


class TestRunConfig:
    def test_violation_listing_is_exhaustive(self):
        bad = quick_config(epochs=-1, batch_size=0, warmup_frac=2.0, patience=0,
                           aux_loss_weight=-0.5, seed=-3, split_seed=-1)
        problems = bad.violations()
        joined = " ".join(problems)
        for token in ("epochs", "batch_size", "warmup_frac", "patience", "aux_loss_weight",
                      "seed must", "split_seed must"):
            assert token in joined
        with pytest.raises(ConfigError):
            bad.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_every_non_finite_float_rejected(self, value):
        # Once: one message, naming the field and its value.
        for name in [f.name for f in fields(RunConfig) if type(f.default) is float]:
            problems = quick_config(**{name: value}).violations()
            assert len(problems) == 1 and name in problems[0], (name, problems)
            assert str(value) in problems[0].rsplit("got ", 1)[1].split(", "), problems
            with pytest.raises(ConfigError, match=f"invalid run config: .*{name}"):
                quick_config(**{name: value}).validate()

    def test_a_non_finite_float_is_reported_once(self):
        nan, inf = float("nan"), float("inf")
        cases = {
            ("dropout", nan): ["dropout must be in [0, 1), got nan"],
            ("capacity_factor", inf): ["capacity_factor must be finite and >= 1, got inf"],
            ("warmup_frac", nan): ["warmup_frac must be in [0, 1), got nan"],
            ("adam_beta1", nan): ["adam_beta1 must be in [0, 1), got nan"],
            ("stop_at_val_accuracy", nan): ["stop_at_val_accuracy must be in [0, 1], got nan"],
            ("peak_lr", nan): ["need 0 <= min_lr <= peak_lr < inf, got 1e-06, nan"],
            # The rules a NaN or inf would pass unless they say finite.
            ("peak_lr", inf): ["need 0 <= min_lr <= peak_lr < inf, got 1e-06, inf"],
            ("adam_eps", inf): ["adam_eps must be finite and > 0, got inf"],
            ("aux_loss_weight", -inf): ["aux_loss_weight must be finite and >= 0, got -inf"],
            ("min_delta", nan): ["min_delta must be finite and >= 0, got nan"],
        }
        for (name, value), want in cases.items():
            assert RunConfig(**{name: value}).violations() == want, (name, value)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig.from_dict({"mystery": 1})

    def test_model_config_carries_every_shared_field(self):
        run_fields = {f.name for f in fields(RunConfig)}
        changed = {f.name: f.default + 1 for f in fields(ModelConfig)
                   if f.name in run_fields and f.name != "variant"}
        changed.update(variant="dense")
        assert len(changed) >= 10
        built = RunConfig(**changed).model_config(vocab_size=37)
        assert built.vocab_size == 37
        for name, value in changed.items():
            assert getattr(built, name) == value != getattr(ModelConfig(), name), name

    def test_adam_settings_checked_with_the_run_config(self):
        problems = RunConfig(adam_beta1=1.5, adam_beta2=-0.1, adam_eps=0.0).violations()
        assert problems == ["adam_beta1 must be in [0, 1), got 1.5",
                            "adam_beta2 must be in [0, 1), got -0.1",
                            "adam_eps must be finite and > 0, got 0.0"]
        for name, value in (("adam_beta1", 1.0), ("adam_beta1", -0.5), ("adam_beta2", 1.0),
                            ("adam_beta2", -0.1), ("adam_eps", 0.0), ("adam_eps", -1e-8)):
            with pytest.raises(ConfigError, match=f"invalid run config: {name} must be"):
                quick_config(**{name: value}).validate()
        assert quick_config(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300).violations() == []


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

    def test_adam_settings_reach_the_optimizer(self, monkeypatch):
        corpus = generate_synthetic_corpus(60, seed=5, min_tokens=6, max_tokens=12)
        built = []

        class Recorded(AdamW):
            def __init__(self, params, **settings):
                super().__init__(params, **settings)
                built.append(self)

        monkeypatch.setattr(training, "AdamW", Recorded)
        runs = [train(quick_config(epochs=1, **settings), corpus, quiet=True) for settings in
                ({}, dict(adam_beta1=0.5, adam_beta2=0.75, adam_eps=1e-3))]
        assert [(opt.beta1, opt.beta2, opt.eps) for opt in built] == [(0.9, 0.999, 5e-6),
                                                                     (0.5, 0.75, 1e-3)]
        weights = [np.concatenate([p.data.ravel() for _, p in run.model.parameters()]) for run in runs]
        assert not np.array_equal(*weights)

    @pytest.mark.parametrize("early_stopping", [True, False])
    def test_optimizer_state_is_gone_before_the_restore(self, monkeypatch, early_stopping):
        # The optimizer's moment and gradient arenas are released before the
        # best checkpoint is loaded back, and no returned parameter keeps a
        # gradient.
        corpus = generate_synthetic_corpus(60, seed=5, min_tokens=6, max_tokens=12)
        built, restores = [], []

        class Recorded(AdamW):
            def __init__(self, params, **settings):
                super().__init__(params, **settings)
                built.append(weakref.ref(self))

        def load(path):
            restores.append([ref() for ref in built])
            return load_checkpoint(path)

        monkeypatch.setattr(training, "AdamW", Recorded)
        monkeypatch.setattr(training, "load_checkpoint", load)
        result = train(quick_config(epochs=2, early_stopping=early_stopping, patience=5), corpus,
                       quiet=True)
        assert len(built) == 1 and built[0]() is None
        assert restores == ([[None]] if early_stopping else [])
        assert all(p.grad is None for _, p in result.model.parameters())

    def test_invalid_adam_setting_stops_the_run_before_the_split(self, monkeypatch):
        monkeypatch.setattr(training, "split_dataset", lambda *a, **k: pytest.fail("split"))
        with pytest.raises(ConfigError, match="invalid run config: adam_beta2"):
            train(quick_config(adam_beta2=1.0), generate_synthetic_corpus(20, seed=1), quiet=True)

    def test_stopword_run_drops_stopwords_and_reruns_byte_identically(self, tmp_path):
        stop = sorted(FRENCH_STOPWORDS)
        notes = generate_synthetic_corpus(60, seed=4, min_tokens=6, max_tokens=12).examples
        corpus = LabeledDataset([Example(e.example_id, f"{stop[i % len(stop)]} {e.text} et le",
                                         e.label) for i, e in enumerate(notes)])
        assert FRENCH_STOPWORDS & set(build_vocab(e.text for e in corpus.examples).id_to_token)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            result = train(quick_config(epochs=2, use_stopwords=True), corpus, out_dir=str(out),
                           quiet=True)
            assert not FRENCH_STOPWORDS & set(result.vocab.id_to_token)
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "timings.tsv")
        assert "best.ckpt" in names and "manifest.json" in names
        for artifact in names:
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("early_stopping", [False, True])
    def test_checkpoint_is_hashed_while_written(self, tmp_path, monkeypatch, early_stopping):
        corpus = generate_synthetic_corpus(80, seed=3, min_tokens=6, max_tokens=12)
        real, returned = training.save_checkpoint, []

        def spy(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(training, "save_checkpoint", spy)
        result = train(quick_config(epochs=2, early_stopping=early_stopping), corpus,
                       out_dir=str(tmp_path), quiet=True)
        assert returned and result.checkpoint_digest == returned[-1]
        assert result.checkpoint_digest == file_digest(result.checkpoint_path)

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
        from switchtext.optim import AdamW, cosine_warmup_lr
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
        schedule = dict(peak_lr=config.peak_lr, min_lr=config.min_lr,
                        warmup_steps=min(int(0.1 * steps_per_epoch * 2), steps_per_epoch * 2 - 1),
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
                opt.step(cosine_warmup_lr(step, **schedule))
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
        assert extra["epoch"] == result.best_epoch == 0
        assert result.history == []

    def test_stop_at_accuracy_target(self, tmp_path):
        corpus = generate_synthetic_corpus(160, seed=6, noise=0.0,
                                           min_tokens=8, max_tokens=16)
        config = quick_config(epochs=40, stop_at_val_accuracy=0.8, peak_lr=3e-3)
        result = train(config, corpus, out_dir=str(tmp_path), quiet=True)
        assert len(result.history) < 40
        assert result.history[-1]["val"].accuracy >= 0.8
        # The model of the last epoch run is the one kept, and named so.
        assert result.best_epoch == len(result.history)
        assert load_checkpoint(result.checkpoint_path)[2]["epoch"] == len(result.history)

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


class TestRestoredEpoch:
    """The returned model, ``best_epoch``, ``final_val`` and the checkpoint
    describe one epoch: the best under early stopping, else the last run."""

    @staticmethod
    def run(early_stopping, out_dir=None, epochs=12):
        # Early stopping keeps epoch 4 of the 6 this run gets to.
        corpus = generate_synthetic_corpus(150, seed=4, noise=0.15, min_tokens=8, max_tokens=20)
        config = quick_config(epochs=epochs, early_stopping=early_stopping, patience=2,
                              peak_lr=1e-2)
        return train(config, corpus, out_dir=out_dir, quiet=True)

    @pytest.mark.parametrize("early_stopping", [True, False])
    @pytest.mark.parametrize("with_out_dir", [True, False])
    def test_final_val_is_the_restored_epochs_logged_report(self, tmp_path, early_stopping,
                                                            with_out_dir):
        result = self.run(early_stopping, str(tmp_path) if with_out_dir else None)
        if early_stopping:
            assert result.stopped_early and result.best_epoch < len(result.history)
        else:
            assert result.best_epoch == len(result.history) == 12
        restored = result.history[result.best_epoch - 1]["val"]
        assert result.final_val.to_dict() == restored.to_dict()
        weights = class_weights(np.asarray([e.label for e in result.encoded["train"]]))
        assert evaluate(result.model, result.encoded["val"], weights=weights).report.loss == restored.loss

    def test_restore_without_out_dir_matches_the_saved_run(self, tmp_path):
        saved = self.run(True, str(tmp_path))
        unsaved = self.run(True)
        assert unsaved.best_epoch == saved.best_epoch < len(saved.history)
        assert unsaved.checkpoint_path == ""
        for (name, p), (_, q) in zip(saved.model.parameters(), unsaved.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    @pytest.mark.parametrize("epochs", [0, 12])
    def test_one_validation_pass_per_epoch(self, monkeypatch, epochs):
        calls = []
        real = training.evaluate
        monkeypatch.setattr(training, "evaluate", lambda *a, **k: calls.append(1) or real(*a, **k))
        result = self.run(True, epochs=epochs)
        assert len(calls) == max(1, len(result.history))


class TestEarlyStopping:
    """``train()``'s early-stopping rule on scripted validation losses: a
    loss more than ``min_delta`` under the best so far is the new best, and
    the run stops ``patience`` epochs after the best."""

    @staticmethod
    def run(monkeypatch, losses, patience=3, min_delta=1e-4, out_dir=None):
        script = iter(losses)

        def scripted(*args, **kwargs):
            outcome = evaluate(*args, **kwargs)
            outcome.report.loss = next(script)
            return outcome

        monkeypatch.setattr(training, "evaluate", scripted)
        corpus = generate_synthetic_corpus(40, seed=5, min_tokens=4, max_tokens=8)
        config = quick_config(epochs=len(losses), early_stopping=True, patience=patience,
                              min_delta=min_delta, d_model=8, d_ff=16)
        return train(config, corpus, out_dir=out_dir, quiet=True)

    def test_monotonic_improvement_never_stops(self, monkeypatch):
        result = self.run(monkeypatch, [0.9, 0.8, 0.7, 0.6, 0.5])
        assert not result.stopped_early
        assert len(result.history) == result.best_epoch == 5

    @pytest.mark.parametrize("patience", [1, 3])
    def test_flat_loss_stops_after_exactly_patience_epochs(self, monkeypatch, patience):
        result = self.run(monkeypatch, [0.5] * 6, patience=patience)
        assert result.stopped_early
        assert len(result.history) == 1 + patience and result.best_epoch == 1

    def test_improvement_restarts_the_count(self, monkeypatch):
        result = self.run(monkeypatch, [1.0, 1.0, 0.5, 0.6, 0.6, 0.6], patience=2)
        assert result.stopped_early
        assert len(result.history) == 5 and result.best_epoch == 3

    def test_min_delta_threshold(self, monkeypatch):
        # A fall of exactly min_delta is no improvement; 0.25 and its
        # differences here are exact in binary.
        result = self.run(monkeypatch, [1.0, 0.75, 0.5], patience=1, min_delta=0.25)
        assert result.stopped_early and len(result.history) == 2 and result.best_epoch == 1
        result = self.run(monkeypatch, [1.0, 0.95, 0.85, 0.8], patience=2, min_delta=0.1)
        assert not result.stopped_early and result.best_epoch == 3
        result = self.run(monkeypatch, [1.0, 0.95, 0.85, 0.8], patience=2, min_delta=0.0)
        assert result.best_epoch == 4

    def test_trace_restores_the_best_epoch(self, monkeypatch, tmp_path):
        result = self.run(monkeypatch, [0.5, 0.3, 0.4, 0.35, 0.4], patience=2,
                          out_dir=str(tmp_path))
        assert result.stopped_early and len(result.history) == 4
        assert result.best_epoch == 2 and result.final_val.loss == 0.3
        model, _, extra = load_checkpoint(result.checkpoint_path)
        assert extra["epoch"] == 2
        for (name, p), (_, q) in zip(result.model.parameters(), model.parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_nan_loss_raises_and_leaves_no_manifest(self, monkeypatch, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")  # an earlier run's
        with pytest.raises(NumericError, match="not finite"):
            self.run(monkeypatch, [0.5, float("nan"), 0.4], out_dir=str(tmp_path))
        assert not (tmp_path / "manifest.json").exists()


class TestEmptySplits:
    def test_train_rejects_an_empty_validation_split(self, tmp_path):
        from switchtext.data import LabeledDataset

        corpus = LabeledDataset(generate_synthetic_corpus(10, positive_fraction=0.5, seed=1).examples[:4])
        with pytest.raises(DataError, match=r"train 4, val 0, test 0"):
            train(quick_config(), corpus, out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)  # rejected before any artifact

    def test_evaluate_rejects_no_examples(self):
        from switchtext.model import EncoderModel

        model = EncoderModel.build(quick_config().model_config(vocab_size=10))
        with pytest.raises(DataError, match="empty split"):
            evaluate(model, [])
