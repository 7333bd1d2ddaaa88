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


def accuracy(preds, labels, threshold: float = 0.5) -> float:
    """Fraction of correct hard predictions; float scores are thresholded."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise DimensionMismatchError("predictions and labels differ in length")
    if preds.size == 0:
        raise EmptySetError("accuracy of an empty set")
    if preds.dtype.kind == "f":
        preds = (preds > threshold).astype(int)
    return float((preds == labels).mean())


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative.

    Exact Mann-Whitney statistic: ties count one half. Average ranks over
    the pooled sample give the positive rank-sum directly, so the result
    is exact without curve integration.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DimensionMismatchError("scores and labels differ in length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need at least one positive and one negative")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range. NaNs
    sort last, each on its own rank, in index order."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])  # NaN != NaN: one run per NaN
    ends = np.r_[starts[1:], v.size] - 1
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks
