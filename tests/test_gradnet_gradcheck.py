"""Central finite-difference checks for every layer kind.

Each stack isolates one layer kind inside a small head-terminated network;
input and parameter gradients must agree with central differences at step
1e-4 within relative error 1e-3 on randomly sampled coordinates.
"""

import zlib

import numpy as np
import pytest

from advlab.gradnet import (
    build,
    conv,
    dense,
    dropout,
    flatten,
    maxpool,
    relu,
    sigmoid,
    softmax,
)

STEP = 1e-4
REL_TOL = 1e-3


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / denom


def check_input_gradient(net, x, y, rng, n_coords=64):
    g = net.input_gradient(x[None], [y])[0]
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for idx in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
        xp = flat.copy()
        xp[idx] += STEP
        xm = flat.copy()
        xm[idx] -= STEP
        fd = (net.loss(xp.reshape(x.shape)[None], [y]) - net.loss(xm.reshape(x.shape)[None], [y])) / (2 * STEP)
        if abs(fd) < 1e-10 and abs(gflat[idx]) < 1e-10:
            continue
        assert rel_err(gflat[idx], fd) < REL_TOL, f"input coord {idx}"


def check_param_gradients(net, x, y, rng, n_coords=64):
    _, _, grads = net.param_gradients(x[None], [y])
    entries = [
        (li, name)
        for li, layer in enumerate(net.params)
        for name in layer
    ]
    coords = []
    for li, name in entries:
        size = net.params[li][name].size
        for idx in rng.choice(size, size=min(8, size), replace=False):
            coords.append((li, name, int(idx)))
    rng.shuffle(coords)
    for li, name, idx in coords[:n_coords]:
        arr = net.params[li][name]
        orig = arr.reshape(-1)[idx]
        arr.reshape(-1)[idx] = orig + STEP
        up = net.loss(x[None], [y])
        arr.reshape(-1)[idx] = orig - STEP
        down = net.loss(x[None], [y])
        arr.reshape(-1)[idx] = orig
        fd = (up - down) / (2 * STEP)
        analytic = grads[li][name].reshape(-1)[idx]
        if abs(fd) < 1e-10 and abs(analytic) < 1e-10:
            continue
        assert rel_err(analytic, fd) < REL_TOL, f"layer {li} {name}[{idx}]"


STACKS = {
    "conv_same": ([conv(4), relu(), flatten(), dense(1), sigmoid()], (6, 6, 1)),
    "relu": ([flatten(), dense(6), relu(), dense(1), sigmoid()], (3, 3, 1)),
    "maxpool": ([maxpool(), flatten(), dense(1), sigmoid()], (6, 6, 2)),
    "dropout_eval": ([flatten(), dropout(0.5), dense(1), sigmoid()], (4, 4, 1)),
    "dense": ([flatten(), dense(5), dense(1), sigmoid()], (2, 2, 1)),
    "sigmoid_head": ([flatten(), dense(1), sigmoid()], (3, 3, 1)),
    "softmax_head": ([flatten(), dense(3), softmax()], (3, 3, 1)),
    "softmax_temp": ([flatten(), dense(3), softmax(temperature=7.0)], (3, 3, 1)),
}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_layer_kind_gradients(name):
    specs, shape = STACKS[name]
    seed = zlib.crc32(name.encode())
    net = build(specs, shape, seed=seed % 2**31)
    rng = np.random.default_rng(seed % 1000)
    # Distinct, well-separated pixel values keep finite differences away
    # from max-pool ties and ReLU kinks.
    x = (rng.permutation(int(np.prod(shape))) + 0.5).reshape(shape) / np.prod(shape)
    y = 1 if net.head.kind == "sigmoid" else int(rng.integers(net.shapes[-1][0]))
    check_input_gradient(net, x, y, rng)
    check_param_gradients(net, x, y, rng)


def test_batch_gradients_match_finite_differences():
    net = build([conv(3), relu(), maxpool(), flatten(), dense(2), softmax()], (6, 6, 1), seed=99)
    rng = np.random.default_rng(100)
    xs = rng.random((4, 6, 6, 1))
    ys = np.array([0, 1, 1, 0])
    _, _, grads = net.param_gradients(xs, ys)
    arr = net.params[0]["w"]
    for idx in rng.choice(arr.size, size=8, replace=False):
        orig = arr.reshape(-1)[idx]
        arr.reshape(-1)[idx] = orig + STEP
        up = net.loss(xs, ys)
        arr.reshape(-1)[idx] = orig - STEP
        down = net.loss(xs, ys)
        arr.reshape(-1)[idx] = orig
        fd = (up - down) / (2 * STEP)
        assert rel_err(grads[0]["w"].reshape(-1)[idx], fd) < REL_TOL


def test_dropout_train_mode_backward_is_mask():
    net = build([flatten(), dropout(0.4), dense(1), sigmoid()], (4, 4, 1), seed=5)
    rng = np.random.default_rng(6)
    x = rng.random((1, 4, 4, 1)) + 0.5  # strictly positive so mask = y/x
    state = net.rng.bit_generator.state
    loss, _, _ = net.param_gradients(x, np.array([1]), train=True)
    net.rng.bit_generator.state = state
    out, _, caches = net._run(x, train=True, keep=True)
    mask = caches[1]
    assert mask is not None
    scaled = {0.0, 1.0 / 0.6}
    assert set(np.round(np.unique(mask), 12)) <= {round(v, 12) for v in scaled}
