"""Region-of-interest extraction: threshold, dilate, label, fill.

The extractor assumes the region of interest is brighter than its
surroundings after normalization; pass invert=True for dark-on-light
regions. When several components survive binarization, the component
enclosing the largest area wins (ties go to the first in raster order of
its top-left pixel, where border following would start its outer contour).
A component and everything it encloses is one 8-connected component of the
hole-filled mask, and components are numbered in that raster order.
"""

from __future__ import annotations

import numpy as np

from ..errors import NoContourError
from .contours import _label_regions, fill_holes
from .ops import (
    binarize,
    compute_histogram,
    dilate,
    otsu_threshold,
    square_kernel,
    to_grayscale,
)


def roi_mask(
    img: np.ndarray,
    kernel: np.ndarray | None = None,
    invert: bool = False,
    threshold: int | None = None,
) -> np.ndarray:
    """Extract the region-of-interest mask of an image.

    Pipeline: grayscale -> automatic threshold (unless `threshold` is
    given) -> binarize -> dilate -> fill holes -> keep the largest
    8-connected component. The returned boolean mask contains the
    component and everything nested inside it.

    Raises DegenerateImageError for single-intensity images and
    NoContourError when binarization leaves no foreground.
    """
    if kernel is None:
        kernel = square_kernel(5)
    gray = to_grayscale(img)
    if threshold is None:
        threshold = otsu_threshold(compute_histogram(gray))
    fg = binarize(gray, threshold, invert=invert)
    fg = dilate(fg, kernel)
    if not fg.any():
        raise NoContourError("binarization produced no foreground pixels")
    labels = _label_regions(fill_holes(fg), foreground=True)
    # argmax takes the first of equal counts: the earliest in raster order.
    return labels == np.argmax(np.bincount(labels.ravel())[1:]) + 1
