"""Hierarchical border following on binary masks.

Foreground components are 8-connected, background regions 4-connected (the
standard duality). A raster scan locates border start pixels; each border is
walked once and labelled, and every border learns its parent, so holes know
which component encloses them. `fill_holes` adds to a mask every background
pixel cut off from the image frame, so `fill_outer_contour` recovers the
full region enclosed by an outer border, including nested holes and islands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Clockwise 8-neighbourhood in (row, col) image coordinates, starting east.
_CW = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
_DIR_INDEX = {d: k for k, d in enumerate(_CW)}


@dataclass
class Contour:
    """One traced border: ordered pixels, kind, and hierarchy links."""

    points: list[tuple[int, int]]
    kind: str  # "outer" or "hole"
    label: int
    parent: int | None = None

    def point_set(self) -> set[tuple[int, int]]:
        return set(self.points)


def trace_borders(mask: np.ndarray) -> list[Contour]:
    """Trace every border of the mask with its outer/hole hierarchy.

    Each 8-connected foreground component produces exactly one outer
    contour; each 4-connected enclosed background region produces one hole
    contour whose parent is the enclosing component's outer contour. Labels
    start at 2 (1 is reserved for the image frame). Empty masks give [].
    """
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ValueError("mask must be a 2-D boolean array")
    rows, cols = mask.shape
    f = mask.astype(np.int64)

    # label -> (kind, parent); the frame behaves like a hole border
    kinds: dict[int, str] = {1: "hole"}
    parents: dict[int, int | None] = {1: None}
    contours: list[Contour] = []
    nbd = 1

    for i in range(rows):
        lnbd = 1
        for j in range(cols):
            fij = f[i, j]
            if fij == 0:
                continue
            start = None
            if fij == 1 and (j == 0 or f[i, j - 1] == 0):
                kind = "outer"
                start = (i, j - 1)
            elif fij >= 1 and (j == cols - 1 or f[i, j + 1] == 0):
                kind = "hole"
                start = (i, j + 1)
                if fij > 1:
                    lnbd = int(fij)
            if start is not None:
                nbd += 1
                prev_kind = kinds[lnbd]
                if kind == prev_kind:
                    parent = parents[lnbd]
                else:
                    parent = lnbd
                kinds[nbd] = kind
                parents[nbd] = parent
                points = _follow_border(f, (i, j), start, nbd)
                contours.append(
                    Contour(
                        points=points,
                        kind=kind,
                        label=nbd,
                        parent=parent if parent != 1 else None,
                    )
                )
            if f[i, j] != 1:
                lnbd = abs(int(f[i, j]))
    return contours


def _follow_border(
    f: np.ndarray,
    origin: tuple[int, int],
    from_pixel: tuple[int, int],
    nbd: int,
) -> list[tuple[int, int]]:
    """Walk one border starting at `origin`, marking pixels in f.

    Marking rules: a border pixel whose east neighbour was examined as
    background during the walk gets -nbd (it closes the border on that
    side); an unmarked border pixel gets +nbd; already-marked pixels keep
    their label so earlier borders stay intact.
    """
    rows, cols = f.shape
    i, j = origin

    def neighbors_cw(center, start_dir):
        ci, cj = center
        for k in range(8):
            d = _CW[(start_dir + k) % 8]
            yield (ci + d[0], cj + d[1]), d

    def value(p):
        r, c = p
        if 0 <= r < rows and 0 <= c < cols:
            return f[r, c]
        return 0

    # First nonzero neighbour clockwise from the start pixel.
    start_dir = _DIR_INDEX[(from_pixel[0] - i, from_pixel[1] - j)]
    p1 = None
    for p, _ in neighbors_cw(origin, start_dir):
        if value(p) != 0:
            p1 = p
            break
    if p1 is None:
        f[i, j] = -nbd
        return [origin]

    p2 = p1
    p3 = origin
    points: list[tuple[int, int]] = []
    while True:
        # Counterclockwise from the next slot after p2 around p3; remember
        # whether the east neighbour was seen as background on the way.
        start = _DIR_INDEX[(p2[0] - p3[0], p2[1] - p3[1])]
        p4 = None
        east_seen_zero = False
        for k in range(1, 9):
            d = _CW[(start - k) % 8]
            cand = (p3[0] + d[0], p3[1] + d[1])
            if value(cand) != 0:
                p4 = cand
                break
            if d == (0, 1):
                east_seen_zero = True
        points.append(p3)
        if east_seen_zero:
            f[p3] = -nbd
        elif f[p3] == 1:
            f[p3] = nbd
        if p4 == origin and p3 == p1:
            break
        p2, p3 = p3, p4
    return points


def _label_regions(mask: np.ndarray, foreground: bool) -> np.ndarray:
    """Flood-fill labelling: 8-connectivity for foreground, 4 for background."""
    target = mask if foreground else ~mask
    rows, cols = target.shape
    labels = np.zeros(target.shape, dtype=np.int64)
    if foreground:
        deltas = _CW
    else:
        deltas = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    current = 0
    for si in range(rows):
        for sj in range(cols):
            if not target[si, sj] or labels[si, sj]:
                continue
            current += 1
            stack = [(si, sj)]
            labels[si, sj] = current
            while stack:
                r, c = stack.pop()
                for dr, dc in deltas:
                    nr, nc = r + dr, c + dc
                    if (
                        0 <= nr < rows
                        and 0 <= nc < cols
                        and target[nr, nc]
                        and not labels[nr, nc]
                    ):
                        labels[nr, nc] = current
                        stack.append((nr, nc))
    return labels


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """The mask plus every background pixel it encloses.

    A background pixel is enclosed when no 4-connected background path
    joins it to the image frame. The filled 8-connected component of a
    top-level component is that component plus everything nested in it.
    """
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ValueError("mask must be a 2-D boolean array")
    labels = _label_regions(mask, foreground=False)
    frame = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    return ~np.isin(labels, frame[frame > 0])


def fill_outer_contour(mask: np.ndarray, contour: Contour) -> np.ndarray:
    """Region enclosed by an outer contour: its component plus its inside."""
    if contour.kind != "outer":
        raise ValueError("only outer contours enclose a region")
    labels = _label_regions(mask, foreground=True)
    return fill_holes(labels == labels[contour.points[0]])
