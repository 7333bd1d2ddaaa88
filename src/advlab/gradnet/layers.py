"""Layer specifications and their forward/backward kernels.

The public layout is channels-last: `Network` takes and returns image
batches as (N, H, W, C). Inside the network, conv, pooling and dropout
activations are channel-major, (C, N, H, W), the layout in which the
im2col matmul emits a conv's output, so no conv transposes its input,
output or output gradient, and every copy, add and strided view below
runs along image rows of length W. `flatten` emits the (H, W, C) row
order the dense weights expect. Activations are (N, D) after flattening.

The layer geometry is fixed (the VGG layout): every conv is 3x3 and
same-padded with stride 1, so its output keeps the input's H and W, and
every max-pool is 2x2 with stride 2, so it halves them, flooring an odd
side. A conv uses an im2col matmul. Its patch matrix `cols` is
(kh*kw*C, N*H*W), filled by one copy per kernel offset, with rows in
(a, b, c) order so that `w.reshape(K, F)` (w is (kh, kw, C, F))
multiplies it directly. `cols` is the whole cache, and only dW reads it,
so an input gradient keeps none. The backward pass is a pair of matmuls
plus a col2im by flat shift: dy is zero-padded to the padded grid, so
each kernel offset's share of dx is one contiguous shifted add into the
flat padded dx, the same adds in the same order as a col2im over strided
views. The dx product is formed one kernel row (kw offsets) at a time
into one reused buffer, a third of the full product's size. A group
never shrinks to one offset: with one input channel that product would
have one row, and numpy would take its matrix-vector path, which rounds
apart from the matrix product (by about 7e-15 on blob_cnn's first conv).
`conv_backward` computes only the gradients its caller asks for:
training needs no input gradient from the first layer, and an input
gradient needs no dW/db.

Max-pooling works on the four 2x2 strided views of its input, one per
window offset in raster order (`_window_views`, which also fills
`cols`). The forward takes their running max and records, per output,
the first offset that holds the max, which is the element `argmax` over
the window would pick (ties are common: flat image regions give equal
conv outputs). The backward adds each offset's share of dy into the
matching strided view of dx, with no scatter index arrays. The
architectures pool before their ReLU: max and ReLU commute, and the
first max is the element ReLU-then-pool routes to, so ReLU runs on a
quarter of the elements.

An inference forward keeps no backward state: with `keep=False` the
pooling forward builds no offset index and returns no cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonPositiveTemperatureError

KINDS = ("conv", "relu", "maxpool", "dropout", "flatten", "dense", "sigmoid", "softmax")
KERNEL = 3  # side of every conv kernel
POOL = 2  # side and stride of every max-pool window


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_channels: int | None = None
    rate: float | None = None
    width: int | None = None
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv" and (self.out_channels is None or self.out_channels < 1):
            raise ValueError("conv needs out_channels >= 1")
        if self.kind == "dropout" and (self.rate is None or not 0.0 <= self.rate < 1.0):
            raise ValueError("dropout rate must lie in [0, 1)")
        if self.kind == "dense" and (self.width is None or self.width < 1):
            raise ValueError("dense needs width >= 1")
        if self.kind == "softmax" and not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise NonPositiveTemperatureError(f"temperature must be finite and > 0, got {self.temperature}")


def conv(out_channels: int) -> LayerSpec:
    return LayerSpec("conv", out_channels=out_channels)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def maxpool() -> LayerSpec:
    return LayerSpec("maxpool")


def dropout(rate: float) -> LayerSpec:
    return LayerSpec("dropout", rate=rate)


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def dense(width: int) -> LayerSpec:
    return LayerSpec("dense", width=width)


def sigmoid() -> LayerSpec:
    return LayerSpec("sigmoid")


def softmax(temperature: float = 1.0) -> LayerSpec:
    return LayerSpec("softmax", temperature=temperature)


# --- kernels ---------------------------------------------------------------


def conv_forward(x, w, b):
    """(y, cols) of a same-padded stride-1 conv layer; x is (C, N, H, W)
    and y is (F, N, H, W), the matmul's (F, N*H*W) product as it stands."""
    cin, n, h, wd = x.shape
    kh, kw, _, f = w.shape
    p = kh // 2
    xp = np.zeros((cin, n, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + wd] = x
    cols = np.empty((kh * kw, cin, n, h, wd), dtype=x.dtype)
    for k, view in enumerate(_window_views(xp, kh, 1, h, wd)):
        cols[k] = view
    cols = cols.reshape(kh * kw * cin, n * h * wd)
    y = w.reshape(-1, f).T @ cols
    y += b[:, None]
    return y.reshape(f, n, h, wd), cols


def conv_backward(dy, w, cols, need_dx=True, need_params=True):
    """(dx, dw, db) of a conv layer; a gradient not asked for is None."""
    kh, kw, cin, f = w.shape
    _, n, h, wd = dy.shape
    dx = dw = db = None
    if need_params:
        dyf = dy.reshape(f, n * h * wd)
        db = dyf.sum(axis=1)
        dw = (cols @ dyf.T).reshape(w.shape)
    if need_dx:
        p = kh // 2
        hp, wp = h + 2 * p, wd + 2 * p
        dyp = np.zeros((f, n, hp, wp))
        dyp[:, :, p : p + h, p : p + wd] = dy
        # One kernel row (kw offsets) per matmul, into one reused buffer.
        # Column j of offset (a, b)'s (C, m) slice belongs at flat padded
        # position j + s of dx; the padding columns of dyp add zeros.
        dyf = dyp.reshape(f, -1)
        m = dyf.shape[1]
        rows = w.reshape(kh, kw * cin, f)
        dcols = np.empty((kw * cin, m))
        dxp = np.zeros((cin, m))
        for a in range(kh):
            np.matmul(rows[a], dyf, out=dcols)
            for b, part in enumerate(dcols.reshape(kw, cin, m)):
                s = (a - p) * wp + (b - p)
                dxp[:, max(s, 0) : m + min(s, 0)] += part[:, max(-s, 0) : m - max(s, 0)]
        dx = dxp.reshape(cin, n, hp, wp)[:, :, p : p + h, p : p + wd]
    return dx, dw, db


def _window_views(a, window, stride, oh, ow):
    """The strided view of `a` under each window offset, in raster order:
    view k holds, for every output (i, j), the element at offset
    (k // window, k % window) of window (i, j)."""
    span_h, span_w = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    return [
        a[:, :, r : r + span_h : stride, c : c + span_w : stride]
        for r in range(window)
        for c in range(window)
    ]


def maxpool_forward(x, keep=True):
    """(y, cache) of a max-pool layer; without keep the cache is None."""
    h, w = x.shape[2:]
    views = _window_views(x, POOL, POOL, h // POOL, w // POOL)
    y = views[0].copy()
    for view in views[1:]:
        np.maximum(y, view, out=y)
    if not keep:
        return y, None
    # idx counts the offsets before the first one that holds the max.
    # Ties come from flat image regions, whose conv outputs are equal.
    idx = np.zeros(y.shape, dtype=np.uint8)
    found = np.zeros(y.shape, dtype=bool)
    for view in views[:-1]:
        found |= view == y
        idx += ~found
    return y, (idx, x.shape)


def maxpool_backward(dy, cache):
    idx, x_shape = cache
    dx = np.zeros(x_shape)
    oh, ow = idx.shape[2:]
    # One offset writes each element; += 0.0 turns -0.0 (negative dy, off the max) into +0.0.
    for k, view in enumerate(_window_views(dx, POOL, POOL, oh, ow)):
        np.multiply(dy, idx == k, out=view)
    dx += 0.0
    return dx


def dropout_forward(x, rate, rng, train):
    """Inverted dropout. An image mask is drawn in (N, H, W, C) element
    order, the public layout, so a seeded network draws the same mask
    whatever its internal (C, N, H, W) layout."""
    if not train or rate == 0.0:
        return x, None
    if x.ndim == 4:
        draw = rng.random(x.transpose(1, 2, 3, 0).shape).transpose(3, 0, 1, 2)
    else:
        draw = rng.random(x.shape)
    mask = (draw >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dy, mask):
    return dy if mask is None else dy * mask


def stable_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax along the last axis.

    Larger temperatures flatten the distribution toward uniform; the
    computation is shifted by the row max for stability.
    """
    if not (np.isfinite(temperature) and temperature > 0.0):
        raise NonPositiveTemperatureError(f"temperature must be finite and > 0, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
