"""Binary-classification evaluation: confusion counts, accuracy, precision,
recall, F1 under positive-class or macro averaging, and rank-statistic
ROC AUC.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError


@dataclass
class ConfusionMatrix:
    """Counts with label 1 as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(labels, predictions) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ContractError(
            f"labels and predictions differ in length: {labels.shape} vs {predictions.shape}"
        )
    bad = set(np.unique(labels)) | set(np.unique(predictions))
    if not bad <= {0, 1}:
        raise ContractError(f"labels/predictions must be 0 or 1, saw {sorted(bad)}")
    return ConfusionMatrix(
        tp=int(((labels == 1) & (predictions == 1)).sum()),
        fp=int(((labels == 0) & (predictions == 1)).sum()),
        fn=int(((labels == 1) & (predictions == 0)).sum()),
        tn=int(((labels == 0) & (predictions == 0)).sum()),
    )


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    confusion: ConfusionMatrix
    averaging: str = "positive"
    zero_division: list[str] = field(default_factory=list)
    loss: float | None = None

    def table_lines(self) -> list[str]:
        cm = self.confusion
        auc = "n/a" if self.auc is None else f"{self.auc:.4f}"
        lines = [
            "metric\tvalue",
            f"accuracy\t{self.accuracy:.4f}",
            f"precision\t{self.precision:.4f}",
            f"recall\t{self.recall:.4f}",
            f"f1\t{self.f1:.4f}",
            f"auc\t{auc}",
            f"confusion_tp_fp_fn_tn\t{cm.tp},{cm.fp},{cm.fn},{cm.tn}",
            f"averaging\t{self.averaging}",
        ]
        if self.loss is not None:
            lines.insert(1, f"loss\t{self.loss:.6f}")
        if self.zero_division:
            lines.append("zero_division\t" + ",".join(self.zero_division))
        return lines

    def to_dict(self) -> dict:
        return asdict(self)


def _safe_ratio(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def classification_metrics(cm: ConfusionMatrix, averaging: str = "positive",
                           auc: float | None = None) -> EvalReport:
    """Accuracy, precision, recall, F1 from confusion counts.

    ``positive`` averaging reports the label-1 class; ``macro`` averages the
    per-class precision/recall first.  F1 is the harmonic mean of whatever
    precision/recall are reported.  Zero denominators yield 0 with a flag.
    """
    if cm.total == 0:
        raise ContractError("metrics need at least one evaluated example")
    flags: list[str] = []
    accuracy = (cm.tp + cm.tn) / cm.total
    if averaging == "positive":
        precision = _safe_ratio(cm.tp, cm.tp + cm.fp, "precision", flags)
        recall = _safe_ratio(cm.tp, cm.tp + cm.fn, "recall", flags)
    elif averaging == "macro":
        p_pos = _safe_ratio(cm.tp, cm.tp + cm.fp, "precision_pos", flags)
        p_neg = _safe_ratio(cm.tn, cm.tn + cm.fn, "precision_neg", flags)
        r_pos = _safe_ratio(cm.tp, cm.tp + cm.fn, "recall_pos", flags)
        r_neg = _safe_ratio(cm.tn, cm.tn + cm.fp, "recall_neg", flags)
        precision = (p_pos + p_neg) / 2.0
        recall = (r_pos + r_neg) / 2.0
    else:
        raise ContractError(f"averaging must be 'positive' or 'macro', got {averaging!r}")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        flags.append("f1")
        f1 = 0.0
    return EvalReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1,
        auc=auc, confusion=cm, averaging=averaging, zero_division=flags,
    )


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic: the probability that
    a random positive outscores a random negative, ties counting 1/2.
    Equivalent to trapezoidal integration of the ROC curve."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ContractError(f"labels and scores differ in length: {labels.shape} vs {scores.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ContractError("roc_auc is undefined unless both classes are present")
    ranks = _average_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, group, sizes = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(sizes)  # each group's last 1-based rank
    return (last - (sizes - 1) / 2.0)[group]
