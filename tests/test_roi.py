"""RoI extraction pipeline on synthetic shapes with known ground truth."""

import numpy as np
import pytest

from advlab.errors import DegenerateImageError, NoContourError
from advlab.imagekit import fill_outer_contour, roi_mask, square_kernel, trace_borders


def disk_image(size=48, center=(24, 24), radius=10, fg=0.9, bg=0.1):
    """Bright disk on dark background; returns (image, disk pixel mask)."""
    yy, xx = np.mgrid[0:size, 0:size]
    disk = (yy - center[0]) ** 2 + (xx - center[1]) ** 2 <= radius**2
    img = np.full((size, size, 1), bg)
    img[disk] = fg
    return img, disk


class TestRoiMask:
    def test_disk_recovered_within_dilation_margin(self):
        img, disk = disk_image()
        mask = roi_mask(img, square_kernel(3))
        # The extractor must cover the disk; dilation may add a rim of at
        # most the kernel radius around it.
        assert (mask & disk).sum() == disk.sum()
        perimeter = np.count_nonzero(disk) - np.count_nonzero(
            (disk[1:-1, 1:-1])
        )
        assert mask.sum() <= disk.sum() + 8 * max(perimeter, 40)

    def test_constant_image_degenerate(self):
        with pytest.raises(DegenerateImageError):
            roi_mask(np.full((16, 16, 1), 0.5))

    def test_largest_of_two_blobs_wins(self):
        img = np.full((40, 40, 1), 0.05)
        img[4:8, 4:8] = 0.95  # 16 px blob
        img[20:36, 20:36] = 0.95  # 256 px blob
        mask = roi_mask(img, square_kernel(1))
        expected = np.zeros((40, 40), dtype=bool)
        expected[20:36, 20:36] = True
        assert (mask == expected).all()

    def test_mask_fills_dark_core(self):
        # Bright ring with dark core: the fill step recovers the core.
        img, disk = disk_image(radius=12)
        yy, xx = np.mgrid[0:48, 0:48]
        core = (yy - 24) ** 2 + (xx - 24) ** 2 <= 5**2
        img[core] = 0.05
        mask = roi_mask(img, square_kernel(3))
        assert mask[core].all()

    def test_deterministic(self):
        img, _ = disk_image()
        a = roi_mask(img)
        b = roi_mask(img)
        assert (a == b).all()

    def test_no_contour_with_explicit_threshold(self):
        img, _ = disk_image()
        with pytest.raises(NoContourError):
            roi_mask(img, threshold=256)

    def test_invert_selects_dark_region(self):
        img, disk = disk_image(fg=0.1, bg=0.9)  # dark lesion on light skin
        mask = roi_mask(img, square_kernel(3), invert=True)
        assert (mask & disk).sum() == disk.sum()

    def test_area_at_least_one(self):
        img, _ = disk_image(radius=2)
        assert roi_mask(img).sum() >= 1


def traced_roi(mask):
    """Border-following reference: fill every outer contour and keep the
    largest region (the first outer contour in raster order on ties)."""
    regions = [fill_outer_contour(mask, c) for c in trace_borders(mask) if c.kind == "outer"]
    return max(regions, key=lambda r: r.sum())


def as_image(mask):
    return mask.astype(float)[:, :, None]


class TestRoiMatchesBorderFollowing:
    def test_random_masks(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            h, w = rng.integers(3, 16, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
            if not mask.any():
                continue
            got = roi_mask(as_image(mask), square_kernel(1), threshold=128)
            assert np.array_equal(got, traced_roi(mask))

    def test_equal_areas_first_in_raster_order_wins(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[6:9, 1:4] = True
        mask[2:5, 7:10] = True  # same area, earlier top-left pixel
        got = roi_mask(as_image(mask), square_kernel(1), threshold=128)
        expected = np.zeros_like(mask)
        expected[2:5, 7:10] = True
        assert np.array_equal(got, expected)
        assert np.array_equal(got, traced_roi(mask))

    def test_ring_with_big_hole_beats_larger_solid_blob(self):
        mask = np.zeros((20, 32), dtype=bool)
        mask[1:13, 1:13] = True
        mask[2:12, 2:12] = False  # ring: 44 px, encloses 144
        mask[2:13, 18:29] = True  # solid blob: 121 px, encloses 121
        got = roi_mask(as_image(mask), square_kernel(1), threshold=128)
        expected = np.zeros_like(mask)
        expected[1:13, 1:13] = True
        assert np.array_equal(got, expected)
        assert np.array_equal(got, traced_roi(mask))
