"""SGD training: separable toys, determinism, degenerate configs."""

import numpy as np
import pytest

from advlab.errors import EmptyDatasetError, InvalidLabelError
from advlab.gradnet import (
    Network,
    TrainConfig,
    build,
    dense,
    evaluate,
    flatten,
    relu,
    sigmoid,
    softmax,
    train,
)
from advlab.gradnet.network import FORWARD_BLOCK


def two_pixel_set(n=40, seed=0):
    """Linearly separable: label 1 iff first pixel > second pixel."""
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 1, 2, 1))
    ys = (xs[:, 0, 0, 0] > xs[:, 0, 1, 0]).astype(int)
    return xs, ys


def fresh_net(seed=0):
    return build([flatten(), dense(1), sigmoid()], (1, 2, 1), seed=seed)


class TestTrain:
    def test_separable_set_reaches_perfect_accuracy(self):
        xs, ys = two_pixel_set()
        net, history = train(
            fresh_net(), (xs, ys), TrainConfig(epochs=200, batch_size=8, learning_rate=0.5, seed=1)
        )
        assert max(history["accuracy"]) == 1.0

    def test_zero_learning_rate_keeps_parameters(self):
        xs, ys = two_pixel_set()
        net = fresh_net(seed=3)
        before = [
            {name: arr.copy() for name, arr in layer.items()} for layer in net.params
        ]
        train(net, (xs, ys), TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=1))
        for layer, snap in zip(net.params, before):
            for name in layer:
                assert np.array_equal(layer[name], snap[name])

    def test_same_seed_bit_identical(self):
        xs, ys = two_pixel_set()
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.3, seed=7)
        net_a, hist_a = train(fresh_net(seed=2), (xs, ys), cfg)
        net_b, hist_b = train(fresh_net(seed=2), (xs, ys), cfg)
        for pa, pb in zip(net_a.params, net_b.params):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])
        assert hist_a == hist_b

    def test_dropout_training_deterministic(self):
        from advlab.gradnet import dropout

        xs, ys = two_pixel_set()
        specs = [flatten(), dense(6), relu(), dropout(0.3), dense(1), sigmoid()]
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.2, seed=11)
        net_a, _ = train(build(specs, (1, 2, 1), seed=5), (xs, ys), cfg)
        net_b, _ = train(build(specs, (1, 2, 1), seed=5), (xs, ys), cfg)
        for pa, pb in zip(net_a.params, net_b.params):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])

    def test_history_shape(self):
        xs, ys = two_pixel_set()
        _, history = train(fresh_net(), (xs, ys), TrainConfig(epochs=3, batch_size=16, seed=0))
        assert len(history["loss"]) == 3
        assert len(history["accuracy"]) == 3

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            train(fresh_net(), (np.zeros((0, 1, 2, 1)), np.zeros(0, dtype=int)), TrainConfig())

    @pytest.mark.parametrize("size", [0, -4])
    def test_batch_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=size)

    def test_dropout_eval_identity(self):
        from advlab.gradnet import dropout

        net = build([flatten(), dropout(0.9), dense(1), sigmoid()], (1, 2, 1), seed=0)
        x = np.array([[[0.3], [0.9]]])
        a = net.forward(x[None])[0]
        b = net.forward(x[None])[0]
        assert a == b  # no stochasticity in eval mode

    def test_inference_deterministic_after_a_failed_epoch(self):
        from advlab.gradnet import dropout

        net = build([flatten(), dense(8), relu(), dropout(0.5), dense(1), sigmoid()], (1, 2, 1), seed=0)
        xs, _ = two_pixel_set(n=16)
        with pytest.raises(InvalidLabelError):
            train(net, (xs, np.full(16, 2)), TrainConfig(epochs=1, batch_size=8))
        assert np.array_equal(net.forward(xs), net.forward(xs))
        ys = np.ones(16, dtype=int)
        assert net.loss(xs, ys) == net.loss(xs, ys)


class TestEvaluate:
    @pytest.mark.parametrize("infer", [evaluate, Network.loss, Network.loss_and_predict], ids=lambda f: f.__name__)
    def test_one_forward_call_per_inference(self, monkeypatch, infer):
        xs, ys = two_pixel_set()
        net = fresh_net()
        calls = []
        real = Network.forward

        def counting(self, x):
            calls.append(len(x))
            return real(self, x)

        monkeypatch.setattr(Network, "forward", counting)
        infer(net, xs, ys)
        assert calls == [len(xs)]

    def test_counts_correct(self):
        xs, ys = two_pixel_set()
        net = fresh_net()
        loss, acc = evaluate(net, xs, ys)
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            evaluate(fresh_net(), np.zeros((0, 1, 2, 1)), np.zeros(0, dtype=int))

    def test_one_forward_per_batch(self, monkeypatch):
        """Whole-set inference runs at most FORWARD_BLOCK rows per forward
        and equals the concatenated per-block calls bit for bit."""
        n = 5 * FORWARD_BLOCK // 2
        xs, ys = two_pixel_set(n=n)
        blocks = [slice(i, i + FORWARD_BLOCK) for i in range(0, n, FORWARD_BLOCK)]
        real = Network._run
        for net in (fresh_net(), build([flatten(), dense(2), softmax()], (1, 2, 1), seed=0)):
            want_probs = np.concatenate([net.forward(xs[b]) for b in blocks])
            want_loss = net._loss_from_probs(want_probs, net._targets(ys, n))
            want_preds = np.concatenate([net.predict(xs[b]) for b in blocks])
            runs = []

            def counting(self, *args, **kwargs):
                runs.append(args[0].shape[0])
                return real(self, *args, **kwargs)

            monkeypatch.setattr(Network, "_run", counting)
            got_forward = net.forward(xs)
            got_logits = net.logits(xs)
            got_preds, got_scores = net.predict_and_score(xs)
            got_loss, got_loss_preds = net.loss_and_predict(xs, ys)
            got_eval = evaluate(net, xs, ys)
            monkeypatch.undo()
            assert runs == [FORWARD_BLOCK, FORWARD_BLOCK, FORWARD_BLOCK // 2] * 5
            assert np.array_equal(got_forward, np.concatenate([net.forward(xs[b]) for b in blocks]))
            assert np.array_equal(got_logits, np.concatenate([net.logits(xs[b]) for b in blocks]))
            scores = [net.predict_and_score(xs[b])[1] for b in blocks]
            assert np.array_equal(got_scores, np.concatenate(scores))
            assert np.array_equal(got_preds, want_preds) and np.array_equal(got_loss_preds, want_preds)
            assert got_loss == want_loss
            assert got_eval == (want_loss, int((want_preds == ys).sum()) / n)
