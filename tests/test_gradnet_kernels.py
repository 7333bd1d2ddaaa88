"""Conv kernels against an NHWC direct sum, max-pooling kernels against
the argmax/np.add.at formulation, the dropout draw order, the partial
backward passes against a full one, and inference forwards against
training ones.

Kernels take and return channel-major (C, N, H, W) activations."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import advlab.gradnet.network as network
from advlab.bench.runner import network_specs
from advlab.gradnet import build, conv, dense, flatten, maxpool, relu, sigmoid
from advlab.gradnet.layers import (
    conv_backward,
    conv_forward,
    dropout_forward,
    maxpool_backward,
    maxpool_forward,
)
from advlab.gradnet.train import evaluate


def oracle_conv(x, w, b):
    """Same-padded channels-last direct sum: (windows, y) with x and y in
    (N, H, W, C)."""
    p = w.shape[0] // 2
    x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    windows = sliding_window_view(x, w.shape[:2], axis=(1, 2))
    return windows, np.einsum("nijcab,abcf->nijf", windows, w) + b


def oracle_conv_backward(x, w, dy):
    """(dx, dw, db) of the direct sum, all channels-last."""
    kh, kw = w.shape[:2]
    p = kh // 2
    windows, _ = oracle_conv(x, w, 0.0)
    h, wd = dy.shape[1:3]
    dwin = np.einsum("nijf,abcf->nijcab", dy, w)
    dxp = np.zeros((x.shape[0], h + 2 * p, wd + 2 * p, x.shape[3]))
    for a in range(kh):
        for c in range(kw):
            dxp[:, a : a + h, c : c + wd] += dwin[..., a, c]
    dx = dxp[:, p : p + h, p : p + wd]
    return dx, np.einsum("nijcab,nijf->abcf", windows, dy), dy.sum(axis=(0, 1, 2))


def nchw(a):
    return a.transpose(3, 0, 1, 2)


def nhwc(a):
    return a.transpose(1, 2, 3, 0)


class TestConvAgainstOracle:
    # ids name the geometry (same padding, stride 1) and the batch size,
    # the form they had when conv geometry was a parameter.
    @pytest.mark.parametrize("n", [1, 16], ids=lambda n: f"same-1-{n}")
    def test_forward_and_backward(self, n):
        rng = np.random.default_rng(n * 10 + 1)
        x = rng.standard_normal((n, 9, 12, 3))
        w, b = rng.standard_normal((3, 3, 3, 5)), rng.standard_normal(5)
        y, cols = conv_forward(nchw(x), w, b)
        _, y_ref = oracle_conv(x, w, b)
        assert y.shape == nchw(y_ref).shape
        np.testing.assert_allclose(nhwc(y), y_ref, rtol=0, atol=1e-12)
        dy = rng.standard_normal(y_ref.shape)
        dx, dw, db = conv_backward(nchw(dy), w, cols)
        dx_ref, dw_ref, db_ref = oracle_conv_backward(x, w, dy)
        np.testing.assert_allclose(nhwc(dx), dx_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(db, db_ref, rtol=0, atol=1e-12)


def oracle_maxpool_forward(x, window, stride):
    """Window copy, argmax and take_along_axis."""
    n, c = x.shape[:2]
    view = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = view.shape[2], view.shape[3]
    flat = view.reshape(n, c, oh, ow, window * window)
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, idx


def oracle_maxpool_backward(dy, idx, x_shape, window, stride):
    """Scatter dy to each window's argmax with np.add.at."""
    dx = np.zeros(x_shape)
    ni, ci, oi, oj = np.indices(idx.shape)
    np.add.at(dx, (ni, ci, oi * stride + idx // window, oj * stride + idx % window), dy)
    return dx


def relu_activations(rng, shape, zero_windows=0):
    """ReLU'd noise with some all-zero (fully tied) 2x2 windows."""
    x = np.maximum(rng.standard_normal(shape), 0.0)
    for _ in range(zero_windows):
        b, i, j = rng.integers(shape[0]), rng.integers(shape[2] // 2), rng.integers(shape[3] // 2)
        x[b, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = 0.0
    return x


class TestMaxpoolAgainstOracle:
    @pytest.mark.parametrize("shape", [(1, 3, 8, 8), (16, 3, 8, 8), (1, 2, 7, 9), (16, 4, 15, 13)])
    def test_bit_identical_non_overlapping(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[2])
        x = relu_activations(rng, shape, zero_windows=2 * shape[0])
        y, cache = maxpool_forward(x)
        y_ref, idx_ref = oracle_maxpool_forward(x, 2, 2)
        assert y.shape == y_ref.shape
        assert np.array_equal(y, y_ref)
        assert np.array_equal(cache[0], idx_ref)
        dy = rng.standard_normal(y.shape)
        dx = maxpool_backward(dy, cache)
        dx_ref = oracle_maxpool_backward(dy, idx_ref, x.shape, 2, 2)
        assert np.array_equal(dx, dx_ref)
        assert not np.signbit(dx[dx == 0.0]).any()

    def test_all_zero_input_routes_to_first_offset(self):
        x = np.zeros((2, 3, 4, 4))
        y, cache = maxpool_forward(x)
        assert (y == 0.0).all() and (cache[0] == 0).all()
        dx = maxpool_backward(np.ones(y.shape), cache)
        assert np.array_equal(dx, oracle_maxpool_backward(np.ones(y.shape), cache[0], x.shape, 2, 2))
        assert dx[:, :, ::2, ::2].sum() == dx.sum() == y.size

    def test_floor_crop_gets_no_gradient(self):
        x = relu_activations(np.random.default_rng(3), (1, 1, 7, 7))
        y, cache = maxpool_forward(x)
        assert y.shape == (1, 1, 3, 3)
        dx = maxpool_backward(np.ones(y.shape), cache)
        assert (dx[:, :, 6, :] == 0.0).all() and (dx[:, :, :, 6] == 0.0).all()


def test_dropout_mask_follows_channels_last_draw_order():
    n, c, h, w = 2, 3, 4, 5
    _, mask = dropout_forward(np.ones((c, n, h, w)), 0.5, np.random.default_rng(9), train=True)
    draw = np.random.default_rng(9).random((n, h, w, c))
    assert mask.shape == (c, n, h, w)
    for i, j, r, s in np.ndindex(n, c, h, w):
        assert mask[j, i, r, s] == (2.0 if draw[i, r, s, j] >= 0.5 else 0.0)


def small_cnn(seed=0):
    specs = [conv(4), relu(), maxpool(), conv(6), relu(), maxpool(), flatten(), dense(8), relu(), dense(1), sigmoid()]
    return build(specs, (11, 11, 1), seed=seed)


def full_backprop(net, xs, ys, rows):
    """Every layer's input and parameter gradients, as one pass computes
    both."""
    out, _, caches = net._run(xs, train=False, keep=True)
    dact = (out - ys[:, None].astype(float)) / rows
    grads = [{} for _ in net.specs]
    for i in range(len(net.specs) - 2, -1, -1):
        spec, params, cache = net.specs[i], net.params[i], caches[i]
        if spec.kind == "conv":
            dact, dw, db = conv_backward(dact, params["w"], cache)
            grads[i] = {"w": dw, "b": db}
        elif spec.kind == "relu":
            dact = dact * cache
        elif spec.kind == "maxpool":
            dact = maxpool_backward(dact, cache)
        elif spec.kind == "flatten":
            c, n, h, w = cache
            dact = dact.reshape(n, h, w, c).transpose(3, 0, 1, 2)
        elif spec.kind == "dense":
            grads[i] = {"w": cache.T @ dact, "b": dact.sum(axis=0)}
            dact = dact @ params["w"].T
    return nhwc(dact), grads


class TestPartialBackward:
    def batch(self, n, seed=5):
        rng = np.random.default_rng(seed)
        return rng.random((n, 11, 11, 1)), rng.integers(0, 2, n)

    @pytest.mark.parametrize("n", [1, 16])
    def test_param_gradients_match_full_pass(self, n):
        net = small_cnn()
        xs, ys = self.batch(n)
        _, grads = net.param_gradients(xs, ys)
        _, ref = full_backprop(net, xs, ys, rows=n)
        for g, r in zip(grads, ref):
            assert g.keys() == r.keys()
            for k in g:
                assert np.array_equal(g[k], r[k])

    @pytest.mark.parametrize("n", [1, 16])
    def test_input_gradient_matches_full_pass(self, n):
        net = small_cnn(seed=1)
        xs, ys = self.batch(n, seed=6)
        ref, _ = full_backprop(net, xs, ys, rows=1)
        assert np.array_equal(net.input_gradient(xs, ys), ref)

    def test_logit_backprop_returns_its_forward_logits(self):
        net = small_cnn(seed=2)
        xs, _ = self.batch(4, seed=7)
        z, dx = net.logit_backprop(xs, np.array([1.0]))
        assert np.array_equal(z, net.logits(xs))
        z1, dx1 = net.logit_backprop(xs[:1], np.array([1.0]))
        assert np.array_equal(z1, net.logits(xs[:1]))
        np.testing.assert_allclose(dx1[0], dx[0], rtol=0, atol=1e-15)

    def test_each_pass_asks_only_for_what_it_reads(self, monkeypatch):
        calls = []

        def spy(dy, w, cols, need_dx=True, need_params=True):
            calls.append((w.shape[-1], need_dx, need_params))
            return conv_backward(dy, w, cols, need_dx=need_dx, need_params=need_params)

        monkeypatch.setattr(network, "conv_backward", spy)
        net = small_cnn()
        xs, ys = self.batch(2)
        net.param_gradients(xs, ys)
        assert calls == [(6, True, True), (4, False, True)]
        calls.clear()
        net.input_gradient(xs, ys)
        assert calls == [(6, True, False), (4, True, False)]


class TestInferenceForward:
    @pytest.mark.parametrize("n", [1, 16, 256])
    def test_no_cache_forward_is_bit_identical(self, n):
        specs, shape = network_specs("blob_cnn", 32, 0.75)
        net = build(specs, shape, seed=3)
        xs = np.random.default_rng(n).random((n, *shape))
        out, z, caches = net._run(xs, train=False, keep=False)
        out_ref, z_ref, caches_ref = net._run(xs, train=False, keep=True)
        assert np.array_equal(out, out_ref) and np.array_equal(z, z_ref)
        assert all(c is None for c in caches) and all(c is not None for c in caches_ref)

    def test_only_backward_passes_ask_for_the_pooling_index(self, monkeypatch):
        calls = []

        def spy(x, keep=True):
            calls.append(keep)
            return maxpool_forward(x, keep=keep)

        monkeypatch.setattr(network, "maxpool_forward", spy)
        net = small_cnn()
        rng = np.random.default_rng(8)
        xs, ys = rng.random((4, 11, 11, 1)), rng.integers(0, 2, 4)
        inference = {
            "forward": lambda: net.forward(xs),
            "predict": lambda: net.predict(xs),
            "predict_and_score": lambda: net.predict_and_score(xs),
            "loss_and_predict": lambda: net.loss_and_predict(xs, ys),
            "evaluate": lambda: evaluate(net, xs, ys),
        }
        backward = {
            "param_gradients": lambda: net.param_gradients(xs, ys),
            "input_gradient": lambda: net.input_gradient(xs, ys),
            "logit_backprop": lambda: net.logit_backprop(xs, np.array([1.0])),
        }
        for passes, keep in ((inference, False), (backward, True)):
            for name, run in passes.items():
                calls.clear()
                run()
                assert calls == [keep, keep], name
