"""Border following and hole filling versus flood-fill oracles."""

import numpy as np
import pytest

from advlab.imagekit import fill_holes, fill_outer_contour, trace_borders


def flood_components(mask):
    """8-connected foreground components; returns list of pixel sets."""
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or seen[si, sj]:
                continue
            comp = set()
            stack = [(si, sj)]
            seen[si, sj] = True
            while stack:
                r, c = stack.pop()
                comp.add((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = r + dr, c + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            stack.append((nr, nc))
            comps.append(comp)
    return comps


def boundary_oracle(mask, comp):
    """Pixels of the component with a 4-neighbour background or image edge."""
    h, w = mask.shape
    out = set()
    for r, c in comp:
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < h and 0 <= nc < w) or not mask[nr, nc]:
                out.add((r, c))
                break
    return out


def check_against_oracle(mask):
    contours = trace_borders(mask)
    outers = [c for c in contours if c.kind == "outer"]
    comps = flood_components(mask)
    assert len(outers) == len(comps)
    for outer in outers:
        comp = next(c for c in comps if outer.points[0] in c)
        assert outer.point_set() <= comp
        holes = [c for c in contours if c.kind == "hole" and c.parent == outer.label]
        traced = outer.point_set()
        for hole in holes:
            traced |= hole.point_set()
        assert traced == boundary_oracle(mask, comp)


class TestTraceBorders:
    def test_empty_mask(self):
        assert trace_borders(np.zeros((5, 5), dtype=bool)) == []

    def test_filled_square(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[3:7, 3:7] = True
        contours = trace_borders(mask)
        assert len(contours) == 1
        c = contours[0]
        assert c.kind == "outer" and c.parent is None
        expected = {
            (r, col)
            for r in range(3, 7)
            for col in range(3, 7)
            if r in (3, 6) or col in (3, 6)
        }
        assert c.point_set() == expected

    def test_ring_has_hole_with_parent(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        mask[3:6, 3:6] = False
        contours = trace_borders(mask)
        outers = [c for c in contours if c.kind == "outer"]
        holes = [c for c in contours if c.kind == "hole"]
        assert len(outers) == 1 and len(holes) == 1
        assert holes[0].parent == outers[0].label

    def test_consecutive_points_8_connected(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            mask = rng.random((10, 10)) < 0.45
            for contour in trace_borders(mask):
                pts = contour.points
                for a, b in zip(pts, pts[1:]):
                    assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1

    def test_single_pixel(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        contours = trace_borders(mask)
        assert len(contours) == 1
        assert contours[0].points == [(1, 1)]

    def test_random_masks_match_flood_fill_oracle(self):
        rng = np.random.default_rng(53)
        for density in (0.2, 0.4, 0.55, 0.7):
            for _ in range(40):
                mask = rng.random((12, 12)) < density
                check_against_oracle(mask)

    def test_full_mask(self):
        check_against_oracle(np.ones((6, 6), dtype=bool))

    def test_nested_structure(self):
        # Component inside the hole of a larger ring.
        mask = np.zeros((11, 11), dtype=bool)
        mask[1:10, 1:10] = True
        mask[3:8, 3:8] = False
        mask[5, 5] = True
        contours = trace_borders(mask)
        outers = [c for c in contours if c.kind == "outer"]
        holes = [c for c in contours if c.kind == "hole"]
        assert len(outers) == 2 and len(holes) == 1
        ring = next(o for o in outers if (1, 1) in o.point_set())
        island = next(o for o in outers if o.points == [(5, 5)])
        assert holes[0].parent == ring.label
        assert island.parent == holes[0].label
        check_against_oracle(mask)


def enclosed_oracle(mask, r, c):
    """True iff a 4-neighbour walk through non-mask pixels from (r, c)
    never reaches the image frame."""
    h, w = mask.shape
    seen = {(r, c)}
    stack = [(r, c)]
    while stack:
        r, c = stack.pop()
        if r in (0, h - 1) or c in (0, w - 1):
            return False
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if not mask[nr, nc] and (nr, nc) not in seen:
                seen.add((nr, nc))
                stack.append((nr, nc))
    return True


class TestFillHoles:
    def test_random_masks_match_bfs_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            h, w = rng.integers(1, 14, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.2, 0.9)
            expected = np.array(
                [[mask[r, c] or enclosed_oracle(mask, r, c) for c in range(w)] for r in range(h)]
            )
            assert np.array_equal(fill_holes(mask), expected)

    def test_empty_and_full(self):
        assert not fill_holes(np.zeros((4, 5), dtype=bool)).any()
        assert fill_holes(np.ones((4, 5), dtype=bool)).all()
        with pytest.raises(ValueError):
            fill_holes(np.ones((4, 5), dtype=int))

    def test_diagonal_gap_does_not_leak(self):
        # Background is 4-connected: a hole touching the outside only at a
        # corner is still enclosed by the 8-connected ring.
        mask = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 0],
            ],
            dtype=bool,
        )
        filled = fill_holes(mask)
        assert filled[1, 1] and not filled[0, 0]


class TestRegionTree:
    """The region an outer contour encloses: ring, hole and island."""

    def test_enclosed_includes_holes_and_islands(self):
        mask = np.zeros((11, 11), dtype=bool)
        mask[1:10, 1:10] = True
        mask[3:8, 3:8] = False
        mask[5, 5] = True
        expected = np.zeros_like(mask)
        expected[1:10, 1:10] = True
        assert np.array_equal(fill_holes(mask), expected)
        outers = [c for c in trace_borders(mask) if c.kind == "outer"]
        ring = next(o for o in outers if (1, 1) in o.point_set())
        island = next(o for o in outers if o.points == [(5, 5)])
        assert np.array_equal(fill_outer_contour(mask, ring), expected)
        only_island = np.zeros_like(mask)
        only_island[5, 5] = True
        assert np.array_equal(fill_outer_contour(mask, island), only_island)

    def test_fill_outer_contour(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        mask[3:6, 3:6] = False
        contours = trace_borders(mask)
        outer = next(c for c in contours if c.kind == "outer")
        filled = fill_outer_contour(mask, outer)
        expected = np.zeros_like(mask)
        expected[2:7, 2:7] = True
        assert (filled == expected).all()

    def test_fill_rejects_hole(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        mask[4, 4] = False
        hole = next(c for c in trace_borders(mask) if c.kind == "hole")
        with pytest.raises(ValueError):
            fill_outer_contour(mask, hole)
