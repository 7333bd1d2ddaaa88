"""Image representation, thresholding, morphology, contours, and RoI masks."""

from .contours import Contour, fill_holes, fill_outer_contour, trace_borders
from .ops import (
    Histogram,
    binarize,
    compute_histogram,
    dilate,
    otsu_threshold,
    square_kernel,
    to_grayscale,
    validate_image,
)
from .pnm import read_image, read_mask, write_image, write_mask
from .roi import roi_mask

__all__ = [
    "Contour",
    "Histogram",
    "binarize",
    "compute_histogram",
    "dilate",
    "fill_holes",
    "fill_outer_contour",
    "otsu_threshold",
    "read_image",
    "read_mask",
    "roi_mask",
    "square_kernel",
    "to_grayscale",
    "trace_borders",
    "validate_image",
    "write_image",
    "write_mask",
]
