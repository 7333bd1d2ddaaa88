"""Max-pool before ReLU computes what ReLU before max-pool does.

The architectures pool before their ReLU. Max and ReLU commute, and the
first max of a window is the element ReLU-then-pool routes its gradient
to, so every output and gradient is equal (signed zeros aside) in both
orders. Inputs hold constant patches, so that pooling windows tie."""

import numpy as np
import pytest

from advlab.bench.runner import network_specs
from advlab.gradnet import build, conv, dense, flatten, maxpool, relu, sigmoid


def relu_then_pool(specs):
    """The same stack with every maxpool-relu pair swapped."""
    specs = list(specs)
    for i in range(len(specs) - 1):
        if specs[i].kind == "maxpool" and specs[i + 1].kind == "relu":
            specs[i], specs[i + 1] = specs[i + 1], specs[i]
    return specs


def small_cnn_specs():
    return [conv(4), maxpool(), relu(), conv(6), maxpool(), relu(), flatten(), dense(8), relu(), dense(1), sigmoid()], (11, 11, 1)


NETS = {
    "blob_cnn": lambda: network_specs("blob_cnn", 32, 0.75),
    "reference": lambda: network_specs("reference", 32, 0.1),
    "small_cnn_11x11": small_cnn_specs,
}


def patchy_batch(shape, n, seed):
    """Noise with constant patches and constant bands, so that conv
    outputs repeat and pooling windows tie."""
    rng = np.random.default_rng(seed)
    xs = rng.random((n, *shape))
    h, w = shape[:2]
    xs[:, h // 4 : h // 2, w // 4 : w // 2] = 0.5
    xs[::2, -(h // 3) :] = 0.0
    return xs, rng.integers(0, 2, n)


@pytest.mark.parametrize("name", NETS)
def test_pool_before_relu_matches_relu_before_pool(name):
    specs, shape = NETS[name]()
    assert specs != relu_then_pool(specs)
    pool_first = build(specs, shape, seed=7)
    relu_first = build(relu_then_pool(specs), shape, seed=7)
    xs, ys = patchy_batch(shape, 12, seed=3)
    dz = np.array([1.0])

    assert np.array_equal(pool_first.forward(xs), relu_first.forward(xs))
    assert np.array_equal(pool_first.logits(xs), relu_first.logits(xs))
    assert np.array_equal(pool_first.input_gradient(xs, ys), relu_first.input_gradient(xs, ys))
    for a, b in zip(pool_first.logit_backprop(xs, dz), relu_first.logit_backprop(xs, dz)):
        assert np.array_equal(a, b)

    # Equal rng states draw equal dropout masks.
    assert pool_first.rng.bit_generator.state == relu_first.rng.bit_generator.state
    loss_a, _, grads_a = pool_first.param_gradients(xs, ys, train=True)
    loss_b, _, grads_b = relu_first.param_gradients(xs, ys, train=True)
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        assert ga.keys() == gb.keys()
        for k in ga:
            assert np.array_equal(ga[k], gb[k])
