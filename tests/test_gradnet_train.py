"""SGD training: separable toys, determinism, degenerate configs."""

import importlib

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

    @pytest.mark.parametrize("head", [[dense(1), sigmoid()], [dense(2), softmax()]], ids=["sigmoid", "softmax"])
    def test_history_accuracy_is_evaluate_when_parameters_stay(self, head):
        # With learning_rate 0 and no dropout every SGD pass runs the
        # parameters evaluate runs, so the running accuracy is evaluate's.
        # A short warm-up first, so the labels are not one constant class.
        xs, ys = two_pixel_set()
        net = build([flatten(), dense(3), relu(), *head], (1, 2, 1), seed=4)
        train(net, (xs, ys), TrainConfig(epochs=5, batch_size=8, learning_rate=0.5, seed=0))
        _, history = train(net, (xs, ys), TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=1))
        assert 0.6 < history["accuracy"][0] < 1.0
        assert history["accuracy"] == [evaluate(net, xs, ys)[1]] * 3

    def test_history_accuracy_of_soft_labels_by_argmax(self):
        xs, ys = two_pixel_set()
        soft = np.stack([1.0 - ys, ys], axis=1) * 0.8 + 0.1
        net = build([flatten(), dense(2), softmax()], (1, 2, 1), seed=4)
        train(net, (xs, soft), TrainConfig(epochs=5, batch_size=8, learning_rate=0.5, seed=0))
        _, history = train(net, (xs, soft), TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=1))
        assert 0.6 < history["accuracy"][0] < 1.0
        assert history["accuracy"] == [evaluate(net, xs, ys)[1]] * 2

    @pytest.mark.parametrize("stop, calls", [(None, 0), (1.0, 4)])
    def test_evaluate_runs_only_for_the_stop_rule(self, monkeypatch, stop, calls):
        # advlab.gradnet re-exports the function `train`, which hides the module.
        gtrain = importlib.import_module("advlab.gradnet.train")
        xs, ys = two_pixel_set()
        seen = []

        def counting(*args):
            seen.append(len(args[1]))
            return evaluate(*args)

        monkeypatch.setattr(gtrain, "evaluate", counting)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.0, seed=1, stop_accuracy=stop)
        _, history = train(fresh_net(), (xs, ys), cfg)
        assert len(history["loss"]) == 4
        assert seen == [len(xs)] * calls

    def test_stop_rule_stops_where_an_evaluating_loop_stops(self):
        """The stop rule reads evaluate (dropout off, end-of-epoch
        parameters), not the running accuracy: the same stopping epoch
        and parameters as a loop that evaluates after every epoch."""
        from advlab.gradnet import dropout

        xs, ys = two_pixel_set(n=64)
        specs = [flatten(), dense(8), relu(), dropout(0.5), dense(1), sigmoid()]
        cfg = TrainConfig(epochs=40, batch_size=8, learning_rate=0.3, seed=2, stop_accuracy=0.95)

        ref = build(specs, (1, 2, 1), seed=5)
        shuffle_rng = np.random.default_rng(cfg.seed)
        evaluated = []
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(xs))
            for start in range(0, len(xs), cfg.batch_size):
                take = order[start : start + cfg.batch_size]
                _, _, grads = ref.param_gradients(xs[take], ys[take], train=True)
                for layer_params, layer_grads in zip(ref.params, grads):
                    for name, g in layer_grads.items():
                        layer_params[name] -= cfg.learning_rate * g
            evaluated.append(evaluate(ref, xs, ys)[1])
            if evaluated[-1] >= cfg.stop_accuracy:
                break
        assert 1 < len(evaluated) < cfg.epochs  # stops early, after more than one epoch

        net, history = train(build(specs, (1, 2, 1), seed=5), (xs, ys), cfg)
        assert len(history["accuracy"]) == len(evaluated)
        assert history["accuracy"] != evaluated  # the running accuracy is another reading
        for pa, pb in zip(net.params, ref.params):
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
