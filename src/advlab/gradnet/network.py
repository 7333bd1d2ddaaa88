"""Network container: build, forward inference, loss, exact backprop.

The last layer must be a sigmoid or softmax head. Losses fuse the head
with binary/categorical cross-entropy so the backward pass starts from the
analytic logit gradient. Every method takes a batch (N, *input_shape)
and returns one row per image; one image is a batch of one. Dropout is
on only in `param_gradients(..., train=True)`, the SGD step. Every other
method runs with dropout off, the regime attacks operate in, and every
inference method runs through `forward` or `logits`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import (
    EmptyBatchError,
    InvalidLabelError,
    ShapeMismatchError,
)
from .layers import (
    KERNEL,
    POOL,
    LayerSpec,
    conv,
    conv_backward,
    conv_forward,
    dense,
    dropout,
    dropout_backward,
    dropout_forward,
    flatten,
    maxpool,
    maxpool_backward,
    maxpool_forward,
    relu,
    sigmoid,
    softmax,
    softmax_with_temperature,
    stable_sigmoid,
)

_EPS = 1e-7  # probability clamp before logs
# Rows per inference forward. im2col expands each conv input ninefold, so
# a whole-set forward would hold that expansion for every row at once.
# benchmarks/block_sweep.py measures the choice: below 32 rows the 16-row
# gradient passes that follow page-fault, as glibc's mmap threshold stays
# under their array sizes.
FORWARD_BLOCK = 32


def propagate_shapes(specs: list[LayerSpec], input_shape: tuple) -> list[tuple]:
    """Activation shape after every layer; raises ShapeMismatchError."""
    shape = tuple(input_shape)
    shapes = [shape]
    for i, spec in enumerate(specs):
        k = spec.kind
        if k == "conv":
            if len(shape) != 3:
                raise ShapeMismatchError(f"layer {i}: conv needs (H, W, C) input, got {shape}", i)
            shape = shape[:2] + (spec.out_channels,)
        elif k == "maxpool":
            if len(shape) != 3:
                raise ShapeMismatchError(f"layer {i}: maxpool needs (H, W, C) input", i)
            h, w, c = shape
            if h < POOL or w < POOL:
                raise ShapeMismatchError(f"layer {i}: {POOL}x{POOL} window exceeds input {shape}", i)
            shape = (h // POOL, w // POOL, c)
        elif k == "flatten":
            if len(shape) != 3:
                raise ShapeMismatchError(f"layer {i}: flatten needs (H, W, C) input", i)
            shape = (int(np.prod(shape)),)
        elif k == "dense":
            if len(shape) != 1:
                raise ShapeMismatchError(f"layer {i}: dense needs flat input, got {shape}", i)
            shape = (spec.width,)
        elif k == "sigmoid":
            if shape != (1,):
                raise ShapeMismatchError(f"layer {i}: sigmoid head needs width 1, got {shape}", i)
            if i != len(specs) - 1:
                raise ShapeMismatchError(f"layer {i}: head must be the final layer", i)
        elif k == "softmax":
            if len(shape) != 1 or shape[0] < 2:
                raise ShapeMismatchError(f"layer {i}: softmax head needs width >= 2, got {shape}", i)
            if i != len(specs) - 1:
                raise ShapeMismatchError(f"layer {i}: head must be the final layer", i)
        # relu and dropout keep the shape
        shapes.append(shape)
    if not specs or specs[-1].kind not in ("sigmoid", "softmax"):
        raise ShapeMismatchError("network must end in a sigmoid or softmax head", len(specs) - 1)
    return shapes


@dataclass
class Network:
    specs: list[LayerSpec]
    input_shape: tuple
    params: list[dict]
    shapes: list[tuple]
    rng: np.random.Generator

    @property
    def head(self) -> LayerSpec:
        return self.specs[-1]

    @property
    def parameter_count(self) -> int:
        return sum(int(a.size) for layer in self.params for a in layer.values())

    def set_temperature(self, t: float) -> None:
        self.specs[-1] = replace(self.specs[-1], temperature=t)

    # --- inference -----------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[1:] != self.input_shape:
            expected = ", ".join(["N", *map(str, self.input_shape)])
            raise ShapeMismatchError(f"input shape {x.shape} is not a batch ({expected})")
        return x

    def _run(self, xb: np.ndarray, train: bool, keep: bool):
        """Forward pass; returns (head output, logits, caches).

        Without keep it is an inference forward and keeps no backward
        state: no ReLU mask or pooling index is built, and every cache
        is None. An image batch is transposed once to channel-major,
        (C, N, H, W), and runs so from the first layer to `flatten`,
        which emits the (N, H*W*C) rows of the public layout.
        """
        act = xb.transpose(3, 0, 1, 2) if xb.ndim == 4 else xb
        caches = []
        for spec, params in zip(self.specs[:-1], self.params[:-1]):
            act, cache = self._layer_forward(spec, params, act, train, keep)
            caches.append(cache if keep else None)
        z = act
        if self.specs[-1].kind == "sigmoid":
            out = stable_sigmoid(z)
        else:
            out = softmax_with_temperature(z, self.specs[-1].temperature)
        return out, z, caches

    def _infer(self, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Head output and logits of an inference forward, FORWARD_BLOCK rows at a time."""
        starts = range(0, max(len(xb), 1), FORWARD_BLOCK)
        blocks = [self._run(xb[i : i + FORWARD_BLOCK], train=False, keep=False) for i in starts]
        return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])

    def _layer_forward(self, spec, params, act, train, keep):
        k = spec.kind
        if k == "conv":
            return conv_forward(act, params["w"], params["b"])
        if k == "relu":
            return np.maximum(act, 0.0), (act > 0 if keep else None)
        if k == "maxpool":
            return maxpool_forward(act, keep=keep)
        if k == "dropout":
            return dropout_forward(act, spec.rate, self.rng, train)
        if k == "flatten":
            return act.transpose(1, 2, 3, 0).reshape(act.shape[1], -1), act.shape
        if k == "dense":
            return act @ params["w"] + params["b"], act
        raise AssertionError(f"unexpected mid-stack layer {k}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Head probabilities: (N,) in (0,1) for sigmoid, (N, K) for softmax."""
        out, _ = self._infer(self._as_batch(x))
        return out[:, 0] if self.head.kind == "sigmoid" else out

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Pre-head activations (temperature not applied)."""
        return self._infer(self._as_batch(x))[1]

    def predict(self, x: np.ndarray):
        """Hard labels: sigmoid thresholds at 0.5, softmax takes the argmax."""
        return self._labels(self.forward(x))

    def _labels(self, p) -> np.ndarray:
        return (p > 0.5).astype(int) if self.head.kind == "sigmoid" else p.argmax(axis=1)

    def _scores(self, p):
        return p if self.head.kind == "sigmoid" else p[:, 1]

    def predict_and_score(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """predict(x) and the positive-class score, for ranking metrics,
        from one forward pass."""
        p = self.forward(x)
        return self._labels(p), self._scores(p)

    # --- losses and gradients -------------------------------------------

    def _targets(self, yb, n: int) -> np.ndarray:
        if self.head.kind == "sigmoid":
            y = np.asarray(yb, dtype=float).reshape(n)
            if ((y < 0) | (y > 1)).any():
                raise InvalidLabelError("sigmoid labels must lie in [0, 1]")
            return y
        k = self.shapes[-1][0]
        y = np.asarray(yb)
        if y.dtype.kind in "iub":
            y = y.reshape(n).astype(int)
            if (y < 0).any() or (y >= k).any():
                raise InvalidLabelError(f"class labels must be ints in [0, {k})")
            onehot = np.zeros((n, k))
            onehot[np.arange(n), y] = 1.0
            return onehot
        if y.size != n * k:
            raise InvalidLabelError(f"soft labels must be (n, {k}) probability vectors")
        y = y.reshape(n, k)
        if (y < 0).any() or (np.abs(y.sum(axis=1) - 1) > 1e-6).any():
            raise InvalidLabelError("soft labels must be probability vectors")
        return y

    def _loss_from_probs(self, probs: np.ndarray, targets: np.ndarray) -> float:
        """Mean cross-entropy of head probabilities as `forward` returns them."""
        p = np.clip(probs, _EPS, 1.0 - _EPS)
        if self.head.kind == "sigmoid":
            per = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
        else:
            per = -(targets * np.log(p)).sum(axis=1)
        return float(per.mean())

    def loss(self, x: np.ndarray, y) -> float:
        """Cross-entropy of the head against y, mean over the batch."""
        return self.loss_and_predict(x, y)[0]

    def loss_and_predict(self, x: np.ndarray, y) -> tuple[float, np.ndarray]:
        """loss(x, y) and the hard labels of a batch from one forward pass."""
        xb = self._as_batch(x)
        targets = self._targets(y, xb.shape[0])
        probs = self.forward(xb)
        return self._loss_from_probs(probs, targets), self._labels(probs)

    def _backprop_layers(self, caches, dz, need_params: bool):
        """Push a logit gradient back through the stack.

        With need_params it returns the parameter gradients and stops at
        the lowest layer that has parameters, whose input gradient nobody
        reads; without, it returns the input gradient and skips dW/db.
        """
        grads: list[dict] = [{} for _ in self.specs]
        stop = min((i for i, p in enumerate(self.params) if p), default=0) if need_params else 0
        dact = dz
        for i in range(len(self.specs) - 2, stop - 1, -1):
            spec, params, cache = self.specs[i], self.params[i], caches[i]
            need_dx = i > stop or not need_params
            k = spec.kind
            if k == "conv":
                dact, dw, db = conv_backward(dact, params["w"], cache, need_dx=need_dx, need_params=need_params)
                if need_params:
                    grads[i] = {"w": dw, "b": db}
            elif k == "relu":
                dact = dact * cache
            elif k == "maxpool":
                dact = maxpool_backward(dact, cache)
            elif k == "dropout":
                dact = dropout_backward(dact, cache)
            elif k == "flatten":
                c, n, h, w = cache
                dact = dact.reshape(n, h, w, c).transpose(3, 0, 1, 2)
            elif k == "dense":
                if need_params:
                    grads[i] = {"w": cache.T @ dact, "b": dact.sum(axis=0)}
                dact = dact @ params["w"].T if need_dx else None
        if need_params:
            return grads
        return dact.transpose(1, 2, 3, 0) if dact.ndim == 4 else dact

    def _backward(self, xb, yb, train: bool, need_params: bool):
        """Loss and one kind of gradient of a batch: with need_params the
        parameter gradients of the batch-mean loss, without it each row's
        input gradient of its own loss."""
        n = xb.shape[0]
        targets = self._targets(yb, n)
        out, z, caches = self._run(xb, train=train, keep=True)
        rows = n if need_params else 1
        if self.head.kind == "sigmoid":
            loss = self._loss_from_probs(out[:, 0], targets)
            dz = (out - targets[:, None]) / rows
        else:
            loss = self._loss_from_probs(out, targets)
            dz = (out - targets) / (self.head.temperature * rows)
        return loss, self._backprop_layers(caches, dz, need_params)

    def logit_backprop(self, x: np.ndarray, dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logits and the gradient of dz . logits w.r.t. the input, from
        one forward pass (dropout off).

        For a binary margin pass dz = [1] (sigmoid head) or [-1, 1]
        (2-logit softmax head).
        """
        xb = self._as_batch(x)
        _, z, caches = self._run(xb, train=False, keep=True)
        dz = np.broadcast_to(np.asarray(dz, dtype=float), (xb.shape[0], self.shapes[-1][0]))
        return z, self._backprop_layers(caches, dz, need_params=False)

    def input_gradient(self, x: np.ndarray, y) -> np.ndarray:
        """Exact gradient of the loss w.r.t. every input pixel (dropout off)."""
        return self._backward(self._as_batch(x), y, train=False, need_params=False)[1]

    def param_gradients(self, xs: np.ndarray, ys, train: bool = False) -> tuple[float, list[dict]]:
        """Loss and parameter gradients averaged over the batch; with
        train, dropout draws its masks from the network's rng."""
        xs = self._as_batch(xs)
        if xs.shape[0] == 0:
            raise EmptyBatchError("gradient of an empty batch")
        return self._backward(xs, ys, train=train, need_params=True)


def build(specs: list[LayerSpec], input_shape: tuple, seed: int = 0) -> Network:
    """Instantiate a network: validate shapes, init parameters uniform
    in +-1/sqrt(fan_in), deterministic per seed.

    Conv weights are (3, 3, cin, f) and dense weights (fan_in, width),
    so fan_in is the product of every weight axis but the last. Each
    layer draws w, then b."""
    shapes = propagate_shapes(specs, tuple(input_shape))
    rng = np.random.default_rng(seed)
    params: list[dict] = []
    for spec, in_shape in zip(specs, shapes[:-1]):
        if spec.kind == "conv":
            w_shape = (KERNEL, KERNEL, in_shape[2], spec.out_channels)
        elif spec.kind == "dense":
            w_shape = (in_shape[0], spec.width)
        else:
            params.append({})
            continue
        bound = 1.0 / np.sqrt(np.prod(w_shape[:-1]))
        params.append({"w": rng.uniform(-bound, bound, size=w_shape), "b": rng.uniform(-bound, bound, size=w_shape[-1:])})
    return Network(specs=list(specs), input_shape=tuple(input_shape), params=params, shapes=shapes, rng=rng)


def _width_scaler(scale: float):
    """Width rule of the named architectures: a hidden width times
    `scale`, at least 1. The dense(1) head is never scaled."""
    return lambda width: max(1, round(width * scale))


def blob_cnn_specs(input_hw: int = 32, scale: float = 1.0) -> tuple[list[LayerSpec], tuple]:
    """Two-conv grayscale CNN sized for the synthetic blob images. Here
    and in `reference_cnn_specs` each max-pool precedes its ReLU."""
    s = _width_scaler(scale)
    specs = [
        conv(s(8)),
        maxpool(),
        relu(),
        conv(s(16)),
        maxpool(),
        relu(),
        flatten(),
        dense(s(64)),
        relu(),
        dense(1),
        sigmoid(),
    ]
    return specs, (input_hw, input_hw, 1)


def reference_cnn_specs(input_hw: int = 126, scale: float = 1.0) -> tuple[list[LayerSpec], tuple]:
    """Stock grayscale CNN descriptor used by the harness.

    At full width on a 126x126x1 input the stack holds exactly 60,307,326
    parameters. `scale` shrinks every hidden width for desk-scale runs.
    """
    s = _width_scaler(scale)
    specs = [
        conv(s(50)),
        relu(),
        conv(s(75)),
        maxpool(),
        relu(),
        dropout(0.25),
        conv(s(125)),
        maxpool(),
        relu(),
        dropout(0.25),
        flatten(),
        dense(s(500)),
        relu(),
        dropout(0.4),
        dense(s(250)),
        relu(),
        dropout(0.3),
        dense(1),
        sigmoid(),
    ]
    return specs, (input_hw, input_hw, 1)


# The architectures an experiment config can name, each mapped to its
# spec builder (input_hw, scale) -> (specs, input shape).
ARCHITECTURES = {"blob_cnn": blob_cnn_specs, "reference": reference_cnn_specs}


def promote_to_softmax(specs: list[LayerSpec], temperature: float = 1.0) -> list[LayerSpec]:
    """Rewrite a sigmoid head as a 2-logit softmax head (for distillation)."""
    if specs[-1].kind != "sigmoid" or specs[-2].kind != "dense":
        raise ShapeMismatchError("expected a dense+sigmoid head to promote")
    return specs[:-2] + [dense(2), softmax(temperature)]
