"""Binary classification metrics on numpy arrays: F1 at a threshold and AUROC."""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _same_shape(preds: np.ndarray, labels: np.ndarray, what: str) -> None:
    if preds.shape != labels.shape:
        raise ContractError(f"{preds.shape} {what} vs {labels.shape} labels")


def precision_recall_f1(preds, labels) -> tuple[float, float, float]:
    """Precision, recall and F1 of the positive class; each is 0 when its denominator is.

    F1 is 0 by convention whenever TP == 0.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    _same_shape(preds, labels, "predictions")
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return precision, recall, f1


def f1_binary(preds, labels) -> float:
    """F1 of the positive class, as precision_recall_f1 computes it."""
    return precision_recall_f1(preds, labels)[2]


def auroc(scores, labels) -> float:
    """Area under the ROC curve of `scores` against 0/1 `labels`.

    The chance that a random positive scores above a random negative, a tie
    counting one half, computed from ranks (the Mann-Whitney U statistic):
    tied scores share the average of their ranks. It is 0.5 by convention
    when either class is absent, since no pair can then be ordered.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _same_shape(scores, labels, "scores")
    positive = labels.ravel() == 1
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if not n_pos or not n_neg:
        return 0.5
    order = np.argsort(scores.ravel(), kind="stable")
    ranked = scores.ravel()[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size]
    ranks = np.empty(ranked.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)  # 1-based average ranks
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
