#!/usr/bin/env python3
"""Walk through the region-of-interest extractor stage by stage.

Generates one synthetic lesion image, then shows what each step of the
pipeline does: grayscale quantization, automatic thresholding, dilation,
border tracing with hierarchy, hole filling, and the final mask.
Artifacts land in demo_out/ as PGM files you can open with any image
viewer.
"""

from pathlib import Path

import numpy as np

from advlab.bench import generate_images
from advlab.imagekit import (
    binarize,
    compute_histogram,
    dilate,
    fill_holes,
    fill_outer_contour,
    otsu_threshold,
    roi_mask,
    square_kernel,
    to_grayscale,
    trace_borders,
    write_image,
    write_mask,
)

out = Path("demo_out")
out.mkdir(exist_ok=True)

images, labels, true_blobs = generate_images(4, size=48, seed=7)
img = images[0]
print(f"image: {img.shape[0]}x{img.shape[1]}, label={labels[0]}")
write_image(out / "roi_input.pgm", img)

# 1. grayscale: channel mean quantized to 256 levels
gray = to_grayscale(img, bins=256)
print(f"grayscale range: {gray.min()}..{gray.max()}")

# 2. automatic threshold from the intensity histogram
hist = compute_histogram(gray, bins=256)
t = otsu_threshold(hist)
below = int(hist.counts[:t].sum())
print(f"threshold t* = {t} (class sizes: {below} px below, {gray.size - below} px at or above)")

# 3. binarize and dilate
fg = binarize(gray, t)
grown = dilate(fg, square_kernel(5))
print(f"foreground: {int(fg.sum())} px, after dilation: {int(grown.sum())} px")
write_mask(out / "roi_binary.pgm", fg)
write_mask(out / "roi_dilated.pgm", grown)

# 4. trace borders: every component gets an outer contour, every enclosed
# background region a hole contour that knows its parent
contours = trace_borders(grown)
for c in contours:
    parent = f" parent={c.parent}" if c.parent else ""
    print(f"  contour {c.label}: {c.kind}, {len(c.points)} points{parent}")

# 5. fill every hole: a component and everything it encloses become one
# 8-connected component of the filled mask; the largest one is the RoI
filled = fill_holes(grown)
areas = {
    c.label: int(fill_outer_contour(grown, c).sum())
    for c in contours
    if c.kind == "outer" and c.parent is None
}
print(f"filled: {int(filled.sum())} px, enclosed area per top-level contour: {areas}")

mask = roi_mask(img, square_kernel(5))
write_mask(out / "roi_mask.pgm", mask)
iou = (mask & true_blobs[0]).sum() / (mask | true_blobs[0]).sum()
print(f"final mask: {int(mask.sum())} px, IoU vs ground-truth blob = {iou:.2f}")
print(f"artifacts in {out}/")
