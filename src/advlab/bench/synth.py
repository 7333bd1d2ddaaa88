"""Synthetic lesion-style dataset: bright elliptical blobs on textured
background. Label 1 means a darker core sits inside the blob. The
generator also returns each blob's exact pixel set, so RoI extraction can
be scored against ground truth.
"""

from __future__ import annotations

import numpy as np


def _ellipse_mask(size: int, center, axes, theta: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    dy = yy - center[0]
    dx = xx - center[1]
    c, s = np.cos(theta), np.sin(theta)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (u / axes[1]) ** 2 + (v / axes[0]) ** 2 <= 1.0


def _clear_of(blob: np.ndarray, r: int, c: int) -> bool:
    """True when the 15x15 window centred on (r, c), clipped at the image
    edge, holds no blob pixel: `not dilate(blob, square_kernel(15))[r, c]`
    at one pixel."""
    return not blob[max(r - 7, 0) : r + 8, max(c - 7, 0) : c + 8].any()


def generate_images(n: int, size: int = 32, seed: int = 0):
    """Deterministic synthetic set: (images, labels, roi_masks).

    Images are (n, size, size, 1) in [0, 1]; labels are balanced within
    one; roi_masks hold the true blob pixels of every image. Every image
    carries a few small core-coloured distractor spots outside the blob,
    so the label depends on finding a darker core *inside* the region of
    interest rather than anywhere in the frame.
    """
    if n < 4:
        raise ValueError("need at least 4 samples")
    if size < 32:
        raise ValueError("size must be >= 32")
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)], dtype=int)
    rng.shuffle(labels)

    images = np.empty((n, size, size, 1))
    rois = np.empty((n, size, size), dtype=bool)
    for i in range(n):
        base = rng.uniform(0.10, 0.25)
        slope = rng.uniform(-0.05, 0.05, size=2)
        yy, xx = np.mgrid[0:size, 0:size].astype(float)
        img = base + slope[0] * yy / size + slope[1] * xx / size

        # Mid-frequency grating texture: class-independent, but it keeps
        # the learned decision surface from being trivially smooth.
        freq = rng.uniform(3.0, 9.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        img += 0.035 * np.cos(2 * np.pi * (freq[0] * yy + freq[1] * xx) / size + phase)

        center = size / 2 + rng.uniform(-size / 10, size / 10, size=2)
        axes = rng.uniform(0.21 * size, 0.30 * size, size=2)
        theta = rng.uniform(0.0, np.pi)
        blob = _ellipse_mask(size, center, axes, theta)
        img[blob] = rng.uniform(0.72, 0.90)

        # Distractor spots, identically distributed for both classes. Each
        # centre has no blob pixel in the 15x15 window around it, so
        # roi_mask's dilation cannot bridge a spot into the blob.
        for _ in range(int(rng.integers(2, 4))):
            spot = None
            for _attempt in range(20):
                d_center = rng.uniform(2, size - 3, size=2)
                if _clear_of(blob, int(d_center[0]), int(d_center[1])):
                    d_axes = rng.uniform(1.2, 2.2, size=2)
                    spot = _ellipse_mask(size, d_center, d_axes, rng.uniform(0, np.pi)) & ~blob
                    break
            if spot is not None and spot.any():
                img[spot] = rng.uniform(0.40, 0.60) + rng.normal(0.0, 0.02, size=int(spot.sum()))

        if labels[i] == 1:
            core_axes = axes * rng.uniform(0.30, 0.45, size=2)
            jitter = rng.uniform(-0.15, 0.15, size=2) * axes
            core = _ellipse_mask(size, center + jitter, core_axes, theta) & blob
            img[core] = rng.uniform(0.33, 0.50)

        img += rng.normal(0.0, 0.02, size=(size, size))
        img[blob] += 0.035 * np.cos(
            2 * np.pi * (freq[1] * yy[blob] + freq[0] * xx[blob]) / size + phase
        )

        images[i, :, :, 0] = np.clip(img, 0.0, 1.0)
        rois[i] = blob
    return images, labels, rois
