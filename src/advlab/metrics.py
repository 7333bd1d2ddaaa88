"""Distance norms, perturbation size, accuracy, and exact ROC-AUC."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySetError,
    SingleClassError,
    ZeroImageError,
)


def lp_norm(a: np.ndarray, b: np.ndarray, p: float = 2) -> float:
    """‖a − b‖_p over all entries; p may be any order >= 1 or math.inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b).ravel()
    if p == math.inf:
        return float(diff.max(initial=0.0))
    if p < 1:
        raise ValueError(f"norm order must be >= 1 or inf, got {p}")
    return float((diff**p).sum() ** (1.0 / p))


def perturbation_percent(x: np.ndarray, adv: np.ndarray) -> float:
    """Perturbation size as a percentage of the clean image's L2 norm."""
    x = np.asarray(x, dtype=float)
    adv = np.asarray(adv, dtype=float)
    if x.shape != adv.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {adv.shape}")
    base = float(np.sqrt((x**2).sum()))
    if base == 0.0:
        raise ZeroImageError("clean image has zero norm")
    return 100.0 * lp_norm(x, adv, 2) / base


def accuracy(preds, labels) -> float:
    """Fraction of hard predictions equal to their labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise DimensionMismatchError("predictions and labels differ in length")
    if preds.size == 0:
        raise EmptySetError("accuracy of an empty set")
    return float((preds == labels).mean())


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative.

    Exact Mann-Whitney U over n_pos * n_neg: for each positive, the
    negatives below it count one and the tied ones one half. NaN when any
    score is NaN, since a NaN has no place in the order.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DimensionMismatchError("scores and labels differ in length")
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise SingleClassError("need at least one positive and one negative")
    if np.isnan(scores).any():
        return math.nan
    # below + ties/2 = (below + below-or-tied)/2, summed exactly as integers.
    twice_u = int((np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum())
    return twice_u / 2.0 / (pos.size * neg.size)
