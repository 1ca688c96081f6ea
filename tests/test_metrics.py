"""Metrics tests: confusion counts, the published-count oracle, averaging
conventions, and rank AUC against an independent trapezoidal integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from switchtext.errors import ContractError
from switchtext.metrics import ConfusionMatrix, classification_metrics, confusion, roc_auc

rng = np.random.default_rng(31)


def labels_for_counts(tp, fp, fn, tn):
    labels = np.array([1] * tp + [0] * fp + [1] * fn + [0] * tn)
    preds = np.array([1] * tp + [1] * fp + [0] * fn + [0] * tn)
    return labels, preds


def trapezoid_auc(labels, scores):
    """ROC area by explicit threshold sweep + trapezoidal integration."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = (labels == 1).sum()
    neg = (labels == 0).sum()
    points = [(0.0, 0.0)]
    for tau in np.sort(np.unique(scores))[::-1]:
        pred = scores >= tau
        tpr = (pred & (labels == 1)).sum() / pos
        fpr = (pred & (labels == 0)).sum() / neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    points = sorted(set(points))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestConfusion:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 1, 0, 1])
        cm = confusion(labels, labels)
        assert (cm.fp, cm.fn) == (0, 0)
        assert cm.tp == 3 and cm.tn == 2

    def test_all_positive_on_all_negative(self):
        cm = confusion(np.zeros(6, int), np.ones(6, int))
        assert (cm.tn, cm.tp) == (0, 0)
        assert cm.fp == 6

    def test_published_switch_counts(self):
        labels, preds = labels_for_counts(tp=253, fp=34, fn=38, tn=219)
        cm = confusion(labels, preds)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (253, 34, 38, 219)
        assert cm.total == 544

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            confusion([0, 1], [0])

    def test_nonbinary_rejected(self):
        with pytest.raises(ContractError):
            confusion([0, 2], [0, 1])

    def test_permutation_invariance(self):
        labels = rng.integers(0, 2, 50)
        preds = rng.integers(0, 2, 50)
        perm = rng.permutation(50)
        a = confusion(labels, preds)
        b = confusion(labels[perm], preds[perm])
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)


class TestClassificationMetrics:
    def test_switch_counts_accuracy_oracle(self):
        cm = ConfusionMatrix(tp=253, fp=34, fn=38, tn=219)
        report = classification_metrics(cm)
        np.testing.assert_allclose(report.accuracy, 472 / 544, atol=1e-12)
        assert abs(report.accuracy - 0.8676) < 1e-4
        assert round(report.accuracy, 2) == 0.87

    def test_switch_counts_positive_class(self):
        cm = ConfusionMatrix(tp=253, fp=34, fn=38, tn=219)
        report = classification_metrics(cm, averaging="positive")
        np.testing.assert_allclose(report.precision, 253 / 287, atol=1e-12)
        np.testing.assert_allclose(report.recall, 253 / 291, atol=1e-12)
        expected_f1 = 2 * report.precision * report.recall / (report.precision + report.recall)
        np.testing.assert_allclose(report.f1, expected_f1, atol=1e-15)

    def test_macro_averaging(self):
        cm = ConfusionMatrix(tp=253, fp=34, fn=38, tn=219)
        report = classification_metrics(cm, averaging="macro")
        p = (253 / 287 + 219 / 257) / 2
        r = (253 / 291 + 219 / 253) / 2
        np.testing.assert_allclose(report.precision, p, atol=1e-12)
        np.testing.assert_allclose(report.recall, r, atol=1e-12)

    def test_all_correct_gives_ones(self):
        report = classification_metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert report.accuracy == report.precision == report.recall == report.f1 == 1.0

    def test_zero_denominator_flagged(self):
        report = classification_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert report.precision == 0.0
        assert "precision" in report.zero_division
        assert "f1" in report.zero_division

    def test_f1_harmonic_mean_invariant(self):
        for _ in range(20):
            tp, fp, fn, tn = rng.integers(1, 50, 4)
            report = classification_metrics(ConfusionMatrix(int(tp), int(fp), int(fn), int(tn)))
            hm = 2 * report.precision * report.recall / (report.precision + report.recall)
            np.testing.assert_allclose(report.f1, hm, atol=1e-12)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_three_of_four_pairs(self):
        np.testing.assert_allclose(
            roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.2]), 0.75, atol=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            roc_auc([1, 1], [0.2, 0.4])

    def test_score_negation_symmetry(self):
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        scores = rng.standard_normal(40)  # continuous, ties negligible
        total = roc_auc(labels, scores) + roc_auc(labels, -scores)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n,with_ties", [(10, False), (200, False), (1000, True), (37, True)])
    def test_rank_statistic_matches_trapezoid(self, n, with_ties):
        gen = np.random.default_rng(n)
        labels = gen.integers(0, 2, n)
        labels[:2] = [0, 1]
        if with_ties:
            scores = gen.integers(0, 7, n).astype(float) / 7.0
        else:
            scores = gen.standard_normal(n)
        np.testing.assert_allclose(
            roc_auc(labels, scores), trapezoid_auc(labels, scores), atol=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(st_.lists(st_.tuples(st_.integers(0, 1), st_.integers(0, 5)), min_size=4, max_size=60))
    def test_rank_equals_trapezoid_property(self, pairs):
        labels = np.array([l for l, _ in pairs])
        if labels.min() == labels.max():
            return
        scores = np.array([s for _, s in pairs], dtype=float)
        np.testing.assert_allclose(
            roc_auc(labels, scores), trapezoid_auc(labels, scores), atol=1e-10
        )

    def test_permutation_invariance(self):
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        scores = rng.random(30)
        perm = rng.permutation(30)
        np.testing.assert_allclose(
            roc_auc(labels, scores), roc_auc(labels[perm], scores[perm]), atol=1e-15
        )


class TestReportSerialization:
    def test_table_and_dict(self):
        report = classification_metrics(ConfusionMatrix(tp=5, fp=1, fn=2, tn=4), auc=0.9)
        lines = report.table_lines()
        assert lines[0] == "metric\tvalue"
        assert any(line.startswith("auc\t0.9000") for line in lines)
        d = report.to_dict()
        assert d["confusion"] == {"tp": 5, "fp": 1, "fn": 2, "tn": 4}
