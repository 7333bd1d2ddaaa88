"""Grayscale conversion, histogram counts, Otsu thresholding, binarization, dilation.

Images are float arrays of shape (H, W, C) with values in [0, 1], C in {1, 3}.
Grayscale images are integer arrays of shape (H, W) quantized to `bins` levels.
Binary masks are boolean arrays of shape (H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DegenerateImageError, DimensionMismatchError


def validate_image(img: np.ndarray) -> np.ndarray:
    """Check the (H, W, C) layout and [0, 1] value range; returns img."""
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise DimensionMismatchError(
            f"expected (H, W, C) image with C in {{1, 3}}, got shape {img.shape}"
        )
    if img.size == 0:
        raise DimensionMismatchError("image has zero pixels")
    lo, hi = float(img.min()), float(img.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"pixel values outside [0, 1]: min={lo}, max={hi}")
    return img


def to_grayscale(img: np.ndarray, bins: int = 256) -> np.ndarray:
    """Collapse channels by unweighted mean and quantize to `bins` levels.

    Quantization maps v in [0, 1] to floor(v * (bins - 1) + 0.5), so 0 maps
    to level 0 and 1 maps to level bins - 1.
    """
    validate_image(img)
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    lum = img.mean(axis=2)
    return np.floor(lum * (bins - 1) + 0.5).astype(np.int64)


@dataclass
class Histogram:
    """Pixel count per intensity level, the input of Otsu thresholding.

    For a split at threshold t, class 0 is [0, t) and class 1 is [t, L).
    """

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.size < 2:
            raise ValueError("histogram needs at least 2 bins")


def compute_histogram(gray: np.ndarray, bins: int = 256) -> Histogram:
    """Count intensity levels of a quantized grayscale image into `bins`."""
    if gray.ndim != 2:
        raise DimensionMismatchError(f"expected (H, W) grayscale, got {gray.shape}")
    if gray.min() < 0 or gray.max() >= bins:
        raise ValueError(f"grayscale values must lie in [0, {bins - 1}]")
    counts = np.bincount(gray.ravel(), minlength=bins)
    return Histogram(counts)


def otsu_threshold(hist: Histogram) -> int:
    """Threshold maximizing the between-class variance.

    Runs the incremental moment-update sweep in exact integer arithmetic:
    class-0 count and first moment are accumulated one level at a time,
    and each t is scored by (S0*C1 - S1*C0)^2 / (C0*C1), which is n^2 times
    the between-class variance. Candidates are ranked by cross-multiplying
    over Python integers, so ties resolve to the smallest maximizing t.
    Raises DegenerateImageError when only one bin is populated.
    """
    if np.count_nonzero(hist.counts) < 2:
        raise DegenerateImageError("histogram has a single populated bin")
    counts = [int(c) for c in hist.counts]
    n = sum(counts)
    s_total = sum(i * c for i, c in enumerate(counts))
    c0 = 0
    s0 = 0
    best_t = 0
    best_num, best_den = -1, 1  # value = num / den, den > 0
    for t in range(1, len(counts)):
        c0 += counts[t - 1]
        s0 += (t - 1) * counts[t - 1]
        c1 = n - c0
        if c0 == 0 or c1 == 0:
            continue
        a = s0 * c1 - (s_total - s0) * c0
        num, den = a * a, c0 * c1
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_t = t
    return best_t


def binarize(gray: np.ndarray, t: int, invert: bool = False) -> np.ndarray:
    """Foreground mask: intensity >= t (or < t when invert is set)."""
    if gray.ndim != 2:
        raise DimensionMismatchError(f"expected (H, W) grayscale, got {gray.shape}")
    mask = gray >= t
    return ~mask if invert else mask


def square_kernel(size: int = 5) -> np.ndarray:
    """All-true square structuring element with an odd side and center anchor."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    return np.ones((size, size), dtype=bool)


def dilate(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Binary max-filter: output true where any kernel-covered pixel is true.

    The kernel anchor is its center; pixels outside the image count as
    background, so foreground never grows past what the kernel reaches.
    """
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise DimensionMismatchError("mask must be a 2-D boolean array")
    if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise ValueError(f"kernel must be odd-sized, got {kernel.shape}")
    ch, cw = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(mask, ((ch, ch), (cw, cw)))
    return sliding_window_view(padded, kernel.shape)[:, :, kernel.astype(bool)].any(-1)
