"""Tests for the classification metrics."""

import itertools

import numpy as np
import pytest

from tabaconv import training
from tabaconv.errors import ContractError
from tabaconv.metrics import auroc, f1_binary, precision_recall_f1


def pairwise_auroc(scores, labels):
    """Brute force: the share of (positive, negative) pairs ordered correctly, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(8))
def test_auroc_equals_pairwise_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(n), 1)  # about ten distinct values, so many ties
    assert auroc(scores, labels) == pytest.approx(pairwise_auroc(scores, labels), abs=1e-12)


def test_auroc_hand_values():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.9, 0.1], [0, 1]) == 0.0
    assert auroc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5


def test_auroc_of_one_class_is_one_half():
    assert auroc([0.2, 0.7], [1, 1]) == 0.5
    assert auroc([0.2, 0.7], [0, 0]) == 0.5
    assert auroc([], []) == 0.5


def test_auroc_rejects_mismatched_shapes():
    with pytest.raises(ContractError):
        auroc([0.1, 0.2], [1])


def test_training_keeps_the_threshold_metrics_importable():
    assert training.precision_recall_f1 is precision_recall_f1
    assert training.f1_binary is f1_binary
