"""Attribution tests: exact closed forms for linear and quadratic targets,
completeness on a trained model, discretization scaling laws, planted-signal
recovery, and misclassification ranking."""

import numpy as np
import pytest

from switchtext import EncoderModel, ModelConfig, Tensor
from switchtext import tensor as T
from switchtext.data import POSITIVE_KEYWORDS
from switchtext.errors import ConfigError, DimensionError, LookupError_, VocabularyError
from switchtext.interpret import (attribution_for_ids, integrated_gradients,
                                  path_integrated_gradients, rank_misclassified)
from switchtext.layers import PAD_ID
from switchtext.training import EncodedExample, evaluate

rng = np.random.default_rng(555)


class TestPathCore:
    def test_input_equals_baseline_all_zero(self):
        w = Tensor(rng.standard_normal((4, 3)))

        def fn(t):
            return T.sum_(T.mul(t, w))

        x = rng.standard_normal((4, 3))
        attr, delta, residual = path_integrated_gradients(fn, x, x.copy(), num_steps=16,
                                                          at_input=fn(Tensor(x)).item())
        np.testing.assert_array_equal(attr, np.zeros((4, 3)))
        assert delta == 0.0 and residual == 0.0

    @pytest.mark.parametrize("num_steps", [8, 33, 256])
    def test_linear_model_closed_form(self, num_steps):
        w = rng.standard_normal((5, 2))

        def fn(t):
            return T.sum_(T.mul(t, Tensor(w)))

        x = rng.standard_normal((5, 2))
        attr, delta, residual = path_integrated_gradients(fn, x, np.zeros_like(x), num_steps,
                                                          fn(Tensor(x)).item())
        np.testing.assert_allclose(attr, w * x, atol=1e-12)
        assert abs(residual) < 1e-12

    def test_quadratic_residual_scaling_law(self):
        # For F = sum(x^2) from a zero baseline the right-Riemann residual is
        # exactly sum(x^2)/m, so doubling the steps halves it.
        x = rng.standard_normal(6)

        def fn(t):
            return T.sum_(T.mul(t, t))

        residuals = {}
        for m in (16, 32, 64):
            _, _, residuals[m] = path_integrated_gradients(fn, x, np.zeros_like(x), m,
                                                           fn(Tensor(x)).item())
        np.testing.assert_allclose(residuals[16], (x * x).sum() / 16, atol=1e-10)
        np.testing.assert_allclose(residuals[32], residuals[16] / 2, atol=1e-10)
        np.testing.assert_allclose(residuals[64], residuals[32] / 2, atol=1e-10)

    def test_step_floor_enforced(self):
        with pytest.raises(ConfigError):
            path_integrated_gradients(lambda t: T.sum_(t), np.ones(3), np.zeros(3), 4, 3.0)

    def test_baseline_shape_mismatch(self):
        from switchtext.errors import ContractError

        with pytest.raises(ContractError):
            path_integrated_gradients(lambda t: T.sum_(t), np.ones(3), np.zeros(4), 8, 3.0)


def tiny_model(seed=2):
    cfg = ModelConfig(variant="dense", num_layers=1, num_heads=2, d_model=8, d_ff=16,
                      vocab_size=14, max_len=10, dropout=0.0, seed=seed)
    return EncoderModel.build(cfg)


class TestModelAttribution:
    @pytest.mark.parametrize("target", ["true", "predicted"])
    def test_one_pass_at_the_input(self, target, monkeypatch):
        # 8 path points, the input and the baseline: the input pass gives
        # both the target logit there and the predicted class.
        model = tiny_model(seed=4)
        ids = np.array([3, 7, 5, 11, 2], dtype=np.int64)
        calls = []
        for name in ("forward", "forward_from_embeddings"):
            def counted(self, *args, _name=name, _method=getattr(EncoderModel, name), **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(EncoderModel, name, counted)
        example = EncodedExample(example_id=3, ids=ids, label=0)
        [(_, report)] = attribution_for_ids(model, [example], [3], target=target, num_steps=8)
        assert calls == ["forward_from_embeddings"] * 10
        assert report.target_class == (report.predicted_class if target == "predicted" else 0)
        monkeypatch.undo()
        mask = np.ones((1, len(ids)), bool)
        logits = model.forward(ids[None, :], mask).logits.data[0]
        at_base = model.forward(np.full((1, len(ids)), PAD_ID), mask).logits.data[0]
        assert report.predicted_class == int(logits.argmax())
        assert report.output_delta == logits[report.target_class] - at_base[report.target_class]

    def test_baseline_attributions_zero(self):
        model = tiny_model()
        ids = np.zeros(5, dtype=np.int64)  # the PAD baseline itself
        report = integrated_gradients(model, ids, np.ones(5, bool), target_class=1,
                                      num_steps=16)
        np.testing.assert_allclose(report.scores, 0.0, atol=1e-12)
        assert report.completeness_residual == pytest.approx(0.0, abs=1e-12)

    def test_residual_median_decreases_with_doubling(self):
        model = tiny_model()
        gen = np.random.default_rng(1)
        examples = []
        for _ in range(20):
            length = int(gen.integers(3, 9))
            examples.append(gen.integers(2, 14, size=length).astype(np.int64))
        medians = []
        for steps in (32, 64, 128, 256, 512):
            residuals = []
            for ids in examples:
                report = integrated_gradients(model, ids, np.ones(len(ids), bool),
                                              target_class=1, num_steps=steps)
                residuals.append(abs(report.completeness_residual))
            medians.append(np.median(residuals))
        for earlier, later in zip(medians, medians[1:]):
            assert later <= earlier + 1e-12, f"medians not decreasing: {medians}"

    def test_sign_stability_of_strong_attributions(self):
        model = tiny_model(seed=9)
        ids = np.array([3, 7, 5, 11, 2], dtype=np.int64)
        mask = np.ones(5, bool)
        r128 = integrated_gradients(model, ids, mask, target_class=0, num_steps=128)
        r256 = integrated_gradients(model, ids, mask, target_class=0, num_steps=256)
        strong = np.abs(r128.scores) > 10 * abs(r128.completeness_residual)
        if strong.any():
            np.testing.assert_array_equal(np.sign(r128.scores[strong]),
                                          np.sign(r256.scores[strong]))

    def test_zero_baseline_mode(self):
        model = tiny_model()
        ids = np.array([3, 4], dtype=np.int64)
        report = integrated_gradients(model, ids, np.ones(2, bool), target_class=1,
                                      baseline="zero", num_steps=16)
        assert report.baseline_kind == "zero"
        assert len(report.scores) == 2

    @pytest.mark.parametrize("ids, error", [
        (np.array([3, 14]), VocabularyError),   # id 14 is beyond vocab_size 14
        (np.full(11, 3), DimensionError),       # 11 tokens exceed max_len 10
    ], ids=["id_beyond_vocab", "longer_than_max_len"])
    def test_bad_input_raises_documented_error(self, ids, error):
        with pytest.raises(error):
            integrated_gradients(tiny_model(), ids, np.ones(len(ids), bool), target_class=1,
                                 num_steps=16)

    def test_report_leaves_the_model_gradients_untouched(self):
        cfg = ModelConfig(variant="switch", num_layers=2, num_heads=2, num_experts=4, d_model=32,
                          d_ff=64, vocab_size=14, max_len=10, dropout=0.0, seed=3)
        model = EncoderModel.build(cfg)
        ids = np.array([3, 7, 5, 11, 2], dtype=np.int64)
        integrated_gradients(model, ids, np.ones(5, bool), target_class=1, num_steps=8)
        assert [name for name, p in model.parameters() if p.grad is not None] == []

    def test_report_text_format(self):
        model = tiny_model()
        ids = np.array([3, 4], dtype=np.int64)
        report = integrated_gradients(model, ids, np.ones(2, bool), target_class=1,
                                      num_steps=16)
        lines = report.text_lines()
        assert lines[2] == "token\tscore"
        assert len(lines) == 5


class TestTrainedModelProperties:
    def test_completeness_within_one_percent(self, smooth_toy_run):
        # The relative bound is only well-posed when the output delta is not
        # near zero; attribution magnitudes stay ~1e-2 regardless.
        model, encoded = smooth_toy_run.model, smooth_toy_run.encoded["val"]
        checked = 0
        for example in encoded:
            report = integrated_gradients(model, example.ids,
                                          np.ones(len(example.ids), bool),
                                          target_class=example.label, num_steps=256)
            if abs(report.output_delta) < 1.0:
                continue
            assert abs(report.completeness_residual) <= 0.01 * abs(report.output_delta), (
                f"residual {report.completeness_residual} vs delta {report.output_delta}"
            )
            checked += 1
        assert checked >= 5

    def test_planted_keywords_rank_high(self, toy_run):
        model, vocab = toy_run.model, toy_run.vocab
        outcome = evaluate(model, toy_run.encoded["train"], batch_size=64)
        positives = [
            e for e, pred in zip(toy_run.encoded["train"], outcome.predictions)
            if e.label == 1 and pred == 1
        ][:12]
        assert len(positives) >= 8
        planted = set(POSITIVE_KEYWORDS)
        hits = 0
        for example in positives:
            report = integrated_gradients(model, example.ids,
                                          np.ones(len(example.ids), bool),
                                          target_class=1, vocab=vocab, num_steps=64)
            top3 = {tok for tok, _ in report.ranked_tokens()[:3]}
            hits += bool(top3 & planted)
        assert hits / len(positives) >= 0.7

    def test_misclassified_count_matches_confusion(self, toy_run):
        model = toy_run.model
        encoded = toy_run.encoded["val"]
        outcome = evaluate(model, encoded, batch_size=64)
        cm = outcome.report.confusion
        reports = rank_misclassified(model, encoded, vocab=toy_run.vocab, num_steps=16)
        assert len(reports) == cm.fp + cm.fn
        for example, report in reports:
            assert report.predicted_class != example.label
        # false negatives lead
        for example, report in reports[:cm.fn]:
            assert example.label == 1

    def test_rank_mode_targets_the_class_each_report_predicts(self, toy_run, monkeypatch):
        # evaluate's predictions only pick the examples; here they call every
        # example misclassified, and each report still targets the class its
        # own pass at the input predicts.
        encoded = toy_run.encoded["val"][:6]
        outcome = evaluate(toy_run.model, encoded)
        outcome.predictions = np.array([1 - e.label for e in encoded])
        monkeypatch.setattr("switchtext.interpret.evaluate", lambda *args, **kwargs: outcome)
        reports = rank_misclassified(toy_run.model, encoded, target="predicted", num_steps=8)
        assert len(reports) == len(encoded)
        assert all(report.target_class == report.predicted_class for _, report in reports)
        assert any(report.predicted_class == example.label for example, report in reports)

    def test_perfect_subset_gives_empty_list(self, toy_run):
        model = toy_run.model
        encoded = toy_run.encoded["train"]
        outcome = evaluate(model, encoded, batch_size=64)
        correct = [e for e, p in zip(encoded, outcome.predictions) if p == e.label][:20]
        assert rank_misclassified(model, correct, num_steps=16) == []

    def test_attribution_by_example_id(self, toy_run):
        encoded = toy_run.encoded["val"]
        wanted = encoded[0].example_id
        reports = attribution_for_ids(toy_run.model, encoded, [wanted],
                                      vocab=toy_run.vocab, num_steps=16)
        assert len(reports) == 1
        assert reports[0][0].example_id == wanted
        with pytest.raises(LookupError_):
            attribution_for_ids(toy_run.model, encoded, [999999], num_steps=16)
        with pytest.raises(ConfigError, match="target"):
            attribution_for_ids(toy_run.model, encoded, [wanted], target="bogus", num_steps=16)
