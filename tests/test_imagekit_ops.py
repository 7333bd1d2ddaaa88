"""Grayscale, histogram counts, Otsu threshold, binarize, dilate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from advlab.errors import DegenerateImageError, DimensionMismatchError
from advlab.imagekit import (
    Histogram,
    binarize,
    compute_histogram,
    dilate,
    otsu_threshold,
    square_kernel,
    to_grayscale,
)


def grayscale_oracle(img, bins):
    """Independent per-pixel mean-then-quantize reference."""
    h, w, c = img.shape
    out = np.zeros((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            v = sum(img[i, j, k] for k in range(c)) / c
            out[i, j] = math.floor(v * (bins - 1) + 0.5)
    return out


def otsu_oracle(counts):
    """Exhaustive argmax of between-class variance in exact arithmetic.

    Evaluates w0*w1*(m0-m1)^2 for every candidate threshold directly from
    histogram slices using Fractions; smallest maximizing t wins.
    """
    n = int(sum(counts))
    best_t, best_v = 0, Fraction(-1)
    for t in range(1, len(counts)):
        c0 = int(sum(counts[:t]))
        c1 = n - c0
        if c0 == 0 or c1 == 0:
            continue
        w0 = Fraction(c0, n)
        w1 = Fraction(c1, n)
        m0 = Fraction(int(sum(i * counts[i] for i in range(t))), c0)
        m1 = Fraction(int(sum(i * counts[i] for i in range(t, len(counts)))), c1)
        v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v:
            best_v, best_t = v, t
    return best_t


class TestToGrayscale:
    def test_all_zero(self):
        img = np.zeros((4, 4, 3))
        assert (to_grayscale(img, 256) == 0).all()

    def test_all_ones(self):
        img = np.ones((4, 4, 1))
        assert (to_grayscale(img, 256) == 255).all()

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.random((8, 8, 3))
        assert (to_grayscale(img, 256) == grayscale_oracle(img, 256)).all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            to_grayscale(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            to_grayscale(np.full((2, 2, 1), 1.5))


class TestHistogram:
    def test_two_value_image(self):
        gray = np.array([[0, 0], [255, 255]])
        h = compute_histogram(gray, 256)
        assert h.counts[0] == 2 and h.counts[255] == 2 and h.counts.sum() == 4

    def test_constant_image(self):
        h = compute_histogram(np.full((3, 3), 42), 256)
        assert h.counts[42] == 9 and h.counts.sum() == 9

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        gray = rng.integers(0, 256, size=(16, 16))
        h = compute_histogram(gray, 256)
        for level in range(256):
            count = sum(1 for v in gray.ravel() if v == level)
            assert h.counts[level] == count

    def test_fewer_than_two_bins_rejected(self):
        with pytest.raises(ValueError, match="at least 2 bins"):
            Histogram(np.array([5]))


class TestOtsu:
    def test_bimodal(self):
        counts = np.zeros(256, dtype=np.int64)
        counts[50] = 32
        counts[200] = 32
        h = Histogram(counts)
        t = otsu_threshold(h)
        assert 50 < t <= 200
        assert t == otsu_oracle(counts)

    def test_constant_image_degenerate(self):
        h = compute_histogram(np.full((4, 4), 9), 256)
        with pytest.raises(DegenerateImageError):
            otsu_threshold(h)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            gray = rng.integers(0, 256, size=(8, 8))
            h = compute_histogram(gray, 256)
            assert otsu_threshold(h) == otsu_oracle(h.counts)


class TestBinarize:
    def test_two_level(self):
        gray = np.array([[0, 0, 255, 255]])
        assert (binarize(gray, 100) == [[False, False, True, True]]).all()

    def test_threshold_zero_all_foreground(self):
        gray = np.array([[0, 5], [250, 255]])
        assert binarize(gray, 0).all()

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(19)
        gray = rng.integers(0, 256, size=(8, 8))
        h = compute_histogram(gray, 256)
        t = otsu_threshold(h)
        mask = binarize(gray, t)
        for i in range(8):
            for j in range(8):
                assert mask[i, j] == (gray[i, j] >= t)

    def test_invert(self):
        gray = np.array([[0, 200]])
        assert (binarize(gray, 100, invert=True) == [[True, False]]).all()


def dilate_oracle(mask, kernel):
    """Naive double-loop max filter."""
    h, w = mask.shape
    kh, kw = kernel.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            hit = False
            for a in range(kh):
                for b in range(kw):
                    if not kernel[a, b]:
                        continue
                    r, c = i + a - ch, j + b - cw
                    if 0 <= r < h and 0 <= c < w and mask[r, c]:
                        hit = True
            out[i, j] = hit
    return out


class TestDilate:
    def test_all_background(self):
        mask = np.zeros((6, 6), dtype=bool)
        assert not dilate(mask, square_kernel(3)).any()

    def test_impulse_response(self):
        mask = np.zeros((11, 11), dtype=bool)
        mask[5, 5] = True
        out = dilate(mask, square_kernel(3))
        expected = np.zeros_like(mask)
        expected[4:7, 4:7] = True
        assert (out == expected).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            mask = rng.random((16, 16)) < 0.3
            assert (dilate(mask, square_kernel(3)) == dilate_oracle(mask, square_kernel(3))).all()

    def test_monotone_and_idempotence(self):
        rng = np.random.default_rng(29)
        mask = rng.random((12, 12)) < 0.2
        k3 = square_kernel(3)
        once = dilate(mask, k3)
        assert (mask <= once).all()  # extensive
        assert (dilate(once, k3) >= once).all()
        k1 = square_kernel(1)
        assert (dilate(mask, k1) == mask).all()  # size-1 kernel is identity
        # and only size 1: a sparse mask keeps growing under a 3x3 kernel
        sparse = np.zeros((12, 12), dtype=bool)
        sparse[6, 6] = True
        assert (dilate(dilate(sparse, k3), k3) != dilate(sparse, k3)).any()

    def test_commutes_with_union(self):
        rng = np.random.default_rng(31)
        a = rng.random((10, 10)) < 0.2
        b = rng.random((10, 10)) < 0.2
        k = square_kernel(3)
        assert (dilate(a | b, k) == (dilate(a, k) | dilate(b, k))).all()

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            dilate(np.zeros((4, 4), dtype=bool), np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize("size", [3, 7, 15])
    def test_mask_no_larger_than_kernel_radius(self, size):
        # Offsets that shift the mask fully off the image touch nothing;
        # a side at most the radius must not wrap a negative slice stop.
        rng = np.random.default_rng(size)
        kernel = square_kernel(size)
        for h, w in [(1, 1), (2, 6), (6, 2), (size // 2, size // 2), (size // 2, 9)]:
            mask = rng.random((h, w)) < 0.4
            assert (dilate(mask, kernel) == dilate_oracle(mask, kernel)).all()
