"""Defence behaviour: training mixes, deflection, distillation."""

import numpy as np
import pytest

from advlab.attacks import AttackConfig
from advlab.defences import (
    DefenceConfig,
    adversarial_train,
    distill,
    gradient_saliency,
    median_filter3,
    pixel_deflect,
)
from advlab.gradnet import TrainConfig, build, dense, evaluate, flatten, relu, sigmoid, softmax_with_temperature, train


def toy_set(n=60, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 1, 2, 1))
    ys = (xs[:, 0, 0, 0] > xs[:, 0, 1, 0]).astype(int)
    return xs, ys


def noisy_margin_set(n=80, seed=3, gap=0.25):
    """Two signal pixels with a margin gap plus 14 noise pixels; the noise
    coordinates are what single-step attacks exploit on an undefended net."""
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 4, 4, 1))
    d = rng.uniform(gap, 0.6, size=n) * rng.choice([-1.0, 1.0], size=n)
    base = rng.uniform(0.2, 0.8 - np.abs(d))
    xs[:, 0, 0, 0] = base + np.maximum(d, 0)
    xs[:, 0, 1, 0] = base + np.maximum(-d, 0)
    ys = (d > 0).astype(int)
    return xs, ys


def toy_specs():
    return [flatten(), dense(6), relu(), dense(1), sigmoid()]


def trained_toy_net(xs, ys, seed=0, epochs=60):
    net = build(toy_specs(), (1, 2, 1), seed=seed)
    train(net, (xs, ys), TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.5, seed=seed))
    return net


class TestAdversarialTrain:
    def test_fraction_zero_matches_plain_training(self):
        xs, ys = toy_set()
        base = trained_toy_net(xs, ys, seed=1, epochs=10)
        tcfg = TrainConfig(epochs=10, batch_size=16, learning_rate=0.5, seed=1)
        cfg = DefenceConfig(kind="adv_train", adversarial_fraction=0.0, train=tcfg)
        hardened, history = adversarial_train(base, (xs, ys), cfg)
        plain = build(toy_specs(), (1, 2, 1), seed=1)
        _, plain_history = train(plain, (xs, ys), tcfg)
        for pa, pb in zip(hardened.params, plain.params):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])
        assert history == plain_history

    def test_fgsm_training_raises_robust_accuracy(self):
        xs, ys = noisy_margin_set(n=80, seed=3)
        specs = [flatten(), dense(8), relu(), dense(1), sigmoid()]
        tcfg = TrainConfig(epochs=40, batch_size=16, learning_rate=0.5, seed=3)
        net = build(specs, (4, 4, 1), seed=3)
        train(net, (xs, ys), tcfg)
        attack_cfg = AttackConfig(epsilon=0.2)
        from advlab.attacks import run_attack

        def fgsm_accuracy(model):
            hits = 0
            for x, y in zip(xs, ys):
                adv = run_attack("fgsm", model, x, int(y), attack_cfg).adversarial
                hits += int(int(model.predict(adv[None])[0]) == int(y))
            return hits / len(xs)

        undefended = fgsm_accuracy(net)
        cfg = DefenceConfig(
            kind="adv_train",
            adversarial_fraction=0.65,
            attack_name="fgsm",
            attack=attack_cfg,
            train=tcfg,
        )
        hardened, history = adversarial_train(net, (xs, ys), cfg)
        assert undefended < 0.9  # the undefended net must actually be vulnerable
        assert fgsm_accuracy(hardened) > undefended
        assert len(history["loss"]) == tcfg.epochs
        assert np.isfinite(history["loss"]).all()

    def test_deterministic(self):
        xs, ys = toy_set(n=30, seed=5)
        net = trained_toy_net(xs, ys, seed=5, epochs=8)
        cfg = DefenceConfig(
            kind="adv_train",
            adversarial_fraction=0.5,
            attack=AttackConfig(epsilon=0.1),
            train=TrainConfig(epochs=4, batch_size=8, learning_rate=0.3, seed=5),
            seed=9,
        )
        a, _ = adversarial_train(net, (xs, ys), cfg)
        b, _ = adversarial_train(net, (xs, ys), cfg)
        for pa, pb in zip(a.params, b.params):
            for name in pa:
                assert np.array_equal(pa[name], pb[name])

    def test_inherited_stop_rule_is_ignored(self):
        # A [train] stop rule reaches each defence's TrainConfig; adversarial
        # training still runs every epoch, even when the first one meets it.
        xs, ys = toy_set(n=30, seed=6)
        net = trained_toy_net(xs, ys, seed=6, epochs=8)
        tcfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.3, seed=6, stop_accuracy=0.0)
        cfg = DefenceConfig(kind="adv_train", adversarial_fraction=0.5, train=tcfg)
        _, history = adversarial_train(net, (xs, ys), cfg)
        assert len(history["loss"]) == len(history["accuracy"]) == tcfg.epochs


    def test_zero_gradient_row_stays_clean(self, monkeypatch, zero_gradient_at):
        import advlab.defences as defences

        xs, ys = noisy_margin_set(n=24, seed=4)
        tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.5, seed=4)
        net = build([flatten(), dense(8), relu(), dense(1), sigmoid()], (4, 4, 1), seed=4)
        train(net, (xs, ys), tcfg)
        flat = 7
        mixes = []
        real_train = defences.train

        def recording(model, dataset, cfg, inputs):
            def recorded(epoch):
                mixes.append(inputs(epoch).copy())
                return mixes[-1]

            return real_train(model, dataset, cfg, inputs=recorded)

        zero_gradient_at(xs[flat])
        monkeypatch.setattr(defences, "train", recording)
        cfg = DefenceConfig(
            kind="adv_train",
            adversarial_fraction=1.0,
            attack_name="mifgsm",
            attack=AttackConfig(epsilon=0.1, iterations=3),
            train=tcfg,
        )
        adversarial_train(net, (xs, ys), cfg)
        assert len(mixes) == tcfg.epochs
        for mixed in mixes:
            assert np.array_equal(mixed[flat], xs[flat])
            moved = np.abs(mixed - xs).reshape(len(xs), -1).max(axis=1) > 0
            assert moved.sum() == len(xs) - 1


class TestPixelDeflect:
    def test_identity_when_disabled(self):
        rng = np.random.default_rng(7)
        x = rng.random((8, 8, 1))
        cfg = DefenceConfig(kind="pixel_deflect", deflections=0, denoise=False)
        out = pixel_deflect(x, np.zeros((8, 8)), cfg)
        assert np.array_equal(out, x)

    def test_constant_image_fixed_point(self):
        x = np.full((8, 8, 3), 0.4)
        cfg = DefenceConfig(kind="pixel_deflect", deflections=50, denoise=True, seed=1)
        out = pixel_deflect(x, np.zeros((8, 8)), cfg)
        assert np.allclose(out, 0.4)

    def test_seeded_runs_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.random((10, 10, 1))
        sal = rng.random((10, 10))
        cfg = DefenceConfig(kind="pixel_deflect", deflections=120, seed=13)
        a = pixel_deflect(x, sal, cfg)
        b = pixel_deflect(x, sal, cfg)
        assert np.array_equal(a, b)

    def test_range_and_shape_preserved(self):
        rng = np.random.default_rng(11)
        x = rng.random((9, 9, 3))
        cfg = DefenceConfig(kind="pixel_deflect", deflections=200, window=4, seed=2)
        out = pixel_deflect(x, gradient_like(x), cfg)
        assert out.shape == x.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_median_filter_smooths_impulse(self):
        x = np.zeros((5, 5, 1))
        x[2, 2, 0] = 1.0
        out = median_filter3(x)
        assert out[2, 2, 0] == 0.0  # lone spike removed


def gradient_like(x):
    h, w, _ = x.shape
    return np.linspace(0, 1, h * w).reshape(h, w)


class TestGradientSaliency:
    def test_normalized_to_unit_range(self):
        xs, ys = toy_set(n=20, seed=15)
        net = trained_toy_net(xs, ys, seed=15, epochs=20)
        sal = gradient_saliency(net, xs[0])
        assert sal.shape == (1, 2)
        assert sal.max() == pytest.approx(1.0)
        assert sal.min() >= 0.0


class TestDistill:
    def test_pipeline_end_to_end(self):
        xs, ys = toy_set(n=40, seed=17)
        cfg = DefenceConfig(
            kind="distill",
            temperature=1.0,
            train=TrainConfig(epochs=15, batch_size=8, learning_rate=0.5, seed=17),
        )
        student, teacher = distill(toy_specs(), (1, 2, 1), (xs, ys), cfg)
        soft = np.asarray(teacher.forward(xs))
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert student.head.kind == "softmax"
        assert student.head.temperature == 1.0
        preds = student.predict(xs)
        assert preds.shape == (40,)

    def test_soft_labels_flatten_with_temperature(self):
        xs, ys = toy_set(n=30, seed=19)
        cfg = DefenceConfig(
            kind="distill",
            temperature=20.0,
            train=TrainConfig(epochs=15, batch_size=8, learning_rate=0.5, seed=19),
        )
        _, teacher = distill(toy_specs(), (1, 2, 1), (xs, ys), cfg)
        logits = np.asarray(teacher.logits(xs))

        def entropy(p):
            q = np.clip(p, 1e-12, 1.0)
            return -(q * np.log(q)).sum(axis=1)

        ent_1 = entropy(softmax_with_temperature(logits, 1.0))
        ent_20 = entropy(softmax_with_temperature(logits, 20.0))
        assert (ent_20 >= ent_1 - 1e-12).all()
        assert (ent_20 > ent_1).mean() > 0.9  # strict for non-degenerate rows

    def test_default_operating_temperature(self):
        assert DefenceConfig(kind="distill").temperature == 20.0
