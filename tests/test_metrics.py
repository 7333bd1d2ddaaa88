"""Norms, perturbation percentage, accuracy, ROC-AUC with pairwise oracle."""

import math

import numpy as np
import pytest

from advlab.errors import (
    DimensionMismatchError,
    EmptySetError,
    SingleClassError,
    ZeroImageError,
)
from advlab.metrics import accuracy, lp_norm, perturbation_percent, roc_auc


def auc_pairwise_oracle(scores, labels):
    """O(n^2) comparison of every (positive, negative) pair; ties are 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestLpNorm:
    def test_identical_images(self):
        a = np.random.default_rng(0).random((4, 4, 3))
        for p in (1, 2, math.inf):
            assert lp_norm(a, a, p) == 0.0

    def test_single_coordinate(self):
        a = np.zeros((3, 3, 1))
        b = a.copy()
        b[1, 1, 0] = 0.5
        for p in (1, 2, math.inf):
            assert lp_norm(a, b, p) == 0.5

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((5, 5, 1)), rng.random((5, 5, 1))
        d = np.abs(a - b).ravel()
        assert abs(lp_norm(a, b, 1) - d.sum()) < 1e-12
        assert abs(lp_norm(a, b, 2) - math.sqrt((d**2).sum())) < 1e-12
        assert lp_norm(a, b, math.inf) == d.max()

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, b, c = (rng.random((3, 3, 1)) for _ in range(3))
            for p in (1, 2, math.inf):
                assert lp_norm(a, b, p) == lp_norm(b, a, p)
                assert lp_norm(a, c, p) <= lp_norm(a, b, p) + lp_norm(b, c, p) + 1e-12
                assert (lp_norm(a, b, p) == 0.0) == np.array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lp_norm(np.zeros((2, 2, 1)), np.zeros((3, 3, 1)))


class TestPerturbationPercent:
    def test_no_change_is_zero(self):
        x = np.random.default_rng(3).random((4, 4, 1))
        assert perturbation_percent(x, x) == 0.0

    def test_proportional_scaling(self):
        x = np.full((4, 4, 1), 0.5)
        adv = x * 1.01
        assert abs(perturbation_percent(x, adv) - 1.0) < 1e-9

    def test_zero_image(self):
        with pytest.raises(ZeroImageError):
            perturbation_percent(np.zeros((2, 2, 1)), np.ones((2, 2, 1)))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_all_wrong(self):
        assert accuracy(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(4)
        preds = rng.integers(0, 2, size=50)
        labels = rng.integers(0, 2, size=50)
        expected = sum(int(p == l) for p, l in zip(preds, labels)) / 50
        assert accuracy(preds, labels) == expected

    def test_empty(self):
        with pytest.raises(EmptySetError):
            accuracy(np.array([]), np.array([]))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_all_ties_half(self):
        scores = np.full(6, 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert roc_auc(scores, labels) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = 20
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        if labels.sum() in (0, 30):
            labels[0] = 1 - labels[0]
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(3 * scores) + 7, labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_negated_scores_complement(self):
        rng = np.random.default_rng(7)
        scores = rng.random(25)  # continuous, no ties
        labels = rng.integers(0, 2, size=25)
        if labels.sum() in (0, 25):
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)

    def test_nan_score_gives_nan_in_either_label_order(self):
        scores = np.array([np.nan, 0.5, np.nan, 0.1])
        assert math.isnan(roc_auc(scores, np.array([1, 0, 0, 1])))
        assert math.isnan(roc_auc(scores, np.array([0, 0, 1, 1])))

    def test_single_class_error(self):
        with pytest.raises(SingleClassError):
            roc_auc(np.array([0.3, 0.7]), np.array([1, 1]))
