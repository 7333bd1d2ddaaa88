"""Network build, forward, loss, and analytic gradients."""

import math
import tracemalloc

import numpy as np
import pytest

from advlab.bench import network_specs
from advlab.errors import (
    EmptyBatchError,
    InvalidLabelError,
    NonPositiveTemperatureError,
    ShapeMismatchError,
)
from advlab.gradnet import (
    LayerSpec,
    build,
    conv,
    dense,
    flatten,
    maxpool,
    promote_to_softmax,
    reference_cnn_specs,
    relu,
    sigmoid,
    softmax,
    softmax_with_temperature,
)
from advlab.gradnet.network import propagate_shapes


def logistic_net(weights, bias=0.0, seed=0):
    """dense(1)+sigmoid over a flat input, with chosen weights."""
    d = len(weights)
    net = build([dense(1), sigmoid()], (d,), seed=seed)
    net.params[0]["w"] = np.asarray(weights, dtype=float).reshape(d, 1)
    net.params[0]["b"] = np.array([bias], dtype=float)
    return net


class TestBuild:
    def test_single_dense_param_count(self):
        net = build([dense(1), sigmoid()], (4,), seed=0)
        assert net.parameter_count == 5  # 4 weights + 1 bias

    def test_conv_param_count(self):
        net = build([conv(8), relu(), flatten(), dense(1), sigmoid()], (4, 4, 1), seed=0)
        conv_params = net.params[0]
        assert conv_params["w"].size + conv_params["b"].size == 80  # 8*(3*3*1)+8

    def test_reference_stack_shapes(self):
        specs, shape = reference_cnn_specs(scale=0.1)
        shapes = propagate_shapes(specs, shape)
        assert shapes[0] == (126, 126, 1)
        assert shapes[-1] == (1,)
        # pooling uses floor division: 126 -> 63 -> 31
        assert shapes[5] == (63, 63, 8)
        assert shapes[9][0] == 31

    @pytest.mark.parametrize("arch", ["blob_cnn", "reference"])
    def test_scaled_architecture_keeps_its_one_unit_head(self, arch):
        # Scaling widens hidden layers only; a scaled dense(1) head would
        # become dense(2) at scale >= 1.5, which a sigmoid head rejects.
        specs, _ = network_specs(arch, 32, 2.0)
        assert specs[-2:] == [dense(1), sigmoid()]

    def test_shape_mismatch_names_layer(self):
        with pytest.raises(ShapeMismatchError) as exc:
            build([dense(3), sigmoid()], (2, 2, 1), seed=0)
        assert exc.value.layer_index == 0

    def test_head_required(self):
        with pytest.raises(ShapeMismatchError):
            build([flatten(), dense(4)], (2, 2, 1), seed=0)

    def test_pool_window_wider_than_input_names_layer(self):
        # A 2x2 window does not fit a one-row input.
        with pytest.raises(ShapeMismatchError) as exc:
            build([maxpool(), flatten(), dense(1), sigmoid()], (1, 4, 1), seed=0)
        assert exc.value.layer_index == 0

    def test_dropout_without_rate_rejected_at_construction(self):
        # Without a rate the spec would build and fail at the first
        # training step instead.
        with pytest.raises(ValueError, match="dropout rate"):
            LayerSpec("dropout")

    def test_deterministic_init(self):
        a = build([flatten(), dense(3), relu(), dense(1), sigmoid()], (2, 2, 1), seed=9)
        b = build([flatten(), dense(3), relu(), dense(1), sigmoid()], (2, 2, 1), seed=9)
        for pa, pb in zip(a.params, b.params):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])


class TestForward:
    def test_zero_weight_sigmoid_is_half(self):
        net = logistic_net([0.0, 0.0, 0.0])
        assert net.forward(np.zeros(3)[None])[0] == 0.5
        assert net.forward(np.ones(3)[None])[0] == 0.5

    def test_equal_logits_softmax_uniform(self):
        net = build([dense(4), softmax()], (3,), seed=0)
        net.params[0]["w"][:] = 0.0
        net.params[0]["b"][:] = 2.0
        p = net.forward(np.ones(3)[None])[0]
        assert np.allclose(p, 0.25, atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_matches_straight_line_reimplementation(self):
        net = build([flatten(), dense(5), relu(), dense(1), sigmoid()], (2, 2, 1), seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((2, 2, 1))
        # independent duplicate evaluation
        h = x.reshape(-1) @ net.params[1]["w"] + net.params[1]["b"]
        h = np.maximum(h, 0.0)
        z = h @ net.params[3]["w"] + net.params[3]["b"]
        expected = 1.0 / (1.0 + math.exp(-z[0]))
        assert abs(net.forward(x[None])[0] - expected) < 1e-12

    def test_batched_forward_matches_loop(self):
        net = build([flatten(), dense(4), relu(), dense(2), softmax()], (2, 2, 1), seed=5)
        xs = np.random.default_rng(6).random((7, 2, 2, 1))
        batched = net.forward(xs)
        for i in range(7):
            assert np.allclose(batched[i], net.forward(xs[i][None])[0], atol=1e-12)

    def test_whole_set_forward_memory_is_bounded(self):
        # Row blocking caps the im2col expansion at one block; 512 rows in
        # one forward would trace about 84 MiB here.
        specs, shape = network_specs("blob_cnn", 32, 0.75)
        net = build(specs, shape, seed=0)
        xs = np.random.default_rng(0).random((512, *shape))
        tracemalloc.start()
        try:
            net.forward(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestBatchContract:
    """Every method takes a batch (N, *input_shape); one image is a batch of one."""

    CALLS = {
        "forward": lambda net, x: net.forward(x),
        "logits": lambda net, x: net.logits(x),
        "predict": lambda net, x: net.predict(x),
        "predict_and_score": lambda net, x: net.predict_and_score(x),
        "loss": lambda net, x: net.loss(x, [1]),
        "loss_and_predict": lambda net, x: net.loss_and_predict(x, [1]),
        "param_gradients": lambda net, x: net.param_gradients(x, [1]),
        "input_gradient": lambda net, x: net.input_gradient(x, [1]),
        "logit_backprop": lambda net, x: net.logit_backprop(x, np.array([1.0])),
    }

    @pytest.mark.parametrize("method", sorted(CALLS))
    def test_one_unbatched_image_is_rejected(self, method):
        net = build([conv(2), relu(), maxpool(), flatten(), dense(1), sigmoid()], (4, 4, 1), seed=0)
        x = np.random.default_rng(1).random((4, 4, 1))
        with pytest.raises(ShapeMismatchError, match=r"\(N, 4, 4, 1\)"):
            self.CALLS[method](net, x)
        self.CALLS[method](net, x[None])  # the same image as a batch of one runs


class TestLoss:
    def test_half_prediction_is_ln2(self):
        net = logistic_net([0.0, 0.0])
        assert abs(net.loss(np.zeros(2)[None], [1]) - math.log(2)) < 1e-12

    def test_correct_prediction_near_zero(self):
        net = logistic_net([50.0], bias=50.0)
        assert net.loss(np.ones(1)[None], [1]) <= 1e-6

    def test_matches_scalar_formula(self):
        net = logistic_net([0.7, -0.3], bias=0.1)
        x = np.array([0.4, 0.9])
        p = float(net.forward(x[None])[0])
        y = 0
        expected = -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert abs(net.loss(x[None], [y]) - expected) < 1e-12

    def test_invalid_label(self):
        net = logistic_net([1.0])
        with pytest.raises(InvalidLabelError):
            net.loss(np.ones(1)[None], [2])
        smax = build([dense(2), softmax()], (3,), seed=0)
        with pytest.raises(InvalidLabelError):
            smax.loss(np.ones(3)[None], [5])


class TestInputGradient:
    def test_logistic_closed_form(self):
        w = [0.8, -0.5, 0.3]
        net = logistic_net(w)
        x = np.array([0.2, 0.6, 0.9])
        p = float(net.forward(x[None])[0])
        g = net.input_gradient(x[None], [1])[0]
        assert np.allclose(g, (p - 1.0) * np.array(w), atol=1e-12)

    def test_zero_at_exact_fit(self):
        # p = 0.5 with y = 0.5 (soft target): gradient vanishes
        net = logistic_net([1.0, 1.0])
        g = net.input_gradient(np.array([0.5, -0.5])[None], [0.5])[0]
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_finite_differences(self):
        net = build([conv(3), relu(), flatten(), dense(1), sigmoid()], (5, 5, 1), seed=7)
        rng = np.random.default_rng(8)
        x = rng.random((5, 5, 1))
        g = net.input_gradient(x[None], [1])[0]
        for _ in range(64):
            i, j = rng.integers(0, 5, size=2)
            step = 1e-4
            xp = x.copy()
            xp[i, j, 0] += step
            xm = x.copy()
            xm[i, j, 0] -= step
            fd = (net.loss(xp[None], [1]) - net.loss(xm[None], [1])) / (2 * step)
            denom = max(abs(fd), abs(g[i, j, 0]), 1e-8)
            assert abs(g[i, j, 0] - fd) / denom < 1e-3


class TestPassLabels:
    """A gradient pass's labels are predict's, read from its own forward."""

    SPECS = {
        "sigmoid": [conv(2), relu(), flatten(), dense(1), sigmoid()],
        "softmax": [conv(2), relu(), flatten(), dense(3), softmax()],
    }

    def problem(self, head):
        net = build(self.SPECS[head], (5, 5, 1), seed=3)
        return net, np.random.default_rng(4).random((9, 5, 5, 1))

    @pytest.mark.parametrize("head", SPECS)
    def test_input_gradient_defaults_to_own_labels(self, head):
        net, xs = self.problem(head)
        assert np.array_equal(net.input_gradient(xs), net.input_gradient(xs, net.predict(xs)))

    @pytest.mark.parametrize("head", SPECS)
    def test_logit_backprop_labels_are_predicts(self, head):
        net, xs = self.problem(head)
        labels, z, _ = net.logit_backprop(xs, np.ones(net.shapes[-1][0]))
        assert np.array_equal(labels, net.predict(xs))
        assert np.array_equal(z, net.logits(xs))

    def test_tiny_positive_logit_is_label_zero(self):
        # stable_sigmoid rounds z = 1e-17 to exactly 0.5, which predict
        # reads as class 0; a z > 0 rule would say 1.
        net = logistic_net([1.0], bias=1e-17)
        xs = np.array([[0.0], [1.0], [-1.0]])
        labels, z, _ = net.logit_backprop(xs, np.array([1.0]))
        assert z[0, 0] > 0.0
        assert labels.tolist() == net.predict(xs).tolist() == [0, 1, 0]
        assert np.array_equal(net.input_gradient(xs), net.input_gradient(xs, [0, 1, 0]))


class TestParamGradients:
    def test_logistic_closed_form(self):
        net = logistic_net([0.4, -0.2], bias=0.05)
        x = np.array([0.3, 0.7])
        y = 1
        p = float(net.forward(x[None])[0])
        _, grads = net.param_gradients(x[None], [y])
        assert np.allclose(grads[0]["w"][:, 0], (p - y) * x, atol=1e-12)
        assert np.allclose(grads[0]["b"], [p - y], atol=1e-12)

    def test_duplicated_sample_same_gradient(self):
        net = build([flatten(), dense(3), relu(), dense(1), sigmoid()], (2, 2, 1), seed=11)
        x = np.random.default_rng(12).random((2, 2, 1))
        _, once = net.param_gradients(x[None], np.array([1]))
        _, twice = net.param_gradients(np.stack([x, x]), np.array([1, 1]))
        for a, b in zip(once, twice):
            for name in a:
                assert np.allclose(a[name], b[name], atol=1e-12)

    def test_empty_batch(self):
        net = logistic_net([1.0])
        with pytest.raises(EmptyBatchError):
            net.param_gradients(np.zeros((0, 1)), np.zeros(0, dtype=int))


class TestSoftmaxTemperature:
    def test_unit_temperature_symmetric(self):
        assert np.allclose(softmax_with_temperature(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])

    def test_large_temperature_flattens(self):
        p = softmax_with_temperature(np.array([2.0, 0.0]), 1e6)
        assert np.abs(p - 0.5).max() < 1e-5

    def test_matches_direct_formula(self):
        p = softmax_with_temperature(np.array([2.0, 0.0]), 10.0)
        expected = math.exp(0.2) / (math.exp(0.2) + 1.0)
        assert abs(p[0] - expected) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveTemperatureError):
            softmax_with_temperature(np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_rejects_non_finite(self, temperature):
        # NaN passes a `<= 0` test and would turn every output into NaN;
        # inf flattens every output to uniform.
        with pytest.raises(NonPositiveTemperatureError):
            softmax_with_temperature(np.array([1.0, 2.0]), temperature)
        with pytest.raises(NonPositiveTemperatureError):
            build([flatten(), dense(2), softmax(temperature)], (2, 2, 1))
        net = build([flatten(), dense(2), softmax()], (2, 2, 1))
        with pytest.raises(NonPositiveTemperatureError):
            net.set_temperature(temperature)


class TestPromotion:
    def test_sigmoid_head_promoted_to_two_logits(self):
        specs = [flatten(), dense(4), relu(), dense(1), sigmoid()]
        promoted = promote_to_softmax(specs, temperature=5.0)
        assert promoted[-1].kind == "softmax"
        assert promoted[-1].temperature == 5.0
        assert promoted[-2].width == 2
        net = build(promoted, (2, 2, 1), seed=0)
        p = net.forward(np.zeros((2, 2, 1))[None])[0]
        assert abs(p.sum() - 1.0) < 1e-9
