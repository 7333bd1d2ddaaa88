"""Attack contracts: closed-form traces, degeneracies, ball containment."""

import math

import numpy as np
import pytest

from advlab.attacks import (
    ATTACK_CHUNK,
    ATTACK_NAMES,
    P_FLOOR,
    ROI_ATTACKS,
    AttackConfig,
    extract_roi_or_full,
    roi_progress,
    run_attack,
    run_attacks,
)
from advlab.errors import DimensionMismatchError, EmptyBatchError, EmptyRoIError, ZeroGradientError
from advlab.gradnet import Network, build, dense, flatten, relu, sigmoid
from advlab.metrics import lp_norm


def logistic_net(weights, bias=0.0):
    """Two-pixel logistic model with known closed-form gradients."""
    net = build([flatten(), dense(1), sigmoid()], (1, len(weights), 1), seed=0)
    net.params[1]["w"] = np.asarray(weights, dtype=float).reshape(-1, 1)
    net.params[1]["b"] = np.array([bias], dtype=float)
    return net


def logistic_grad(weights, bias, x_flat, y):
    """dJ/dx = (p - y) * w for the logistic model."""
    z = float(np.dot(weights, x_flat) + bias)
    p = 1.0 / (1.0 + math.exp(-z))
    return (p - y) * np.asarray(weights, dtype=float)


W = [1.2, -0.8]
B = 0.1
X = np.array([0.6, 0.4]).reshape(1, 2, 1)
FULL_ROI = np.ones((1, 2), dtype=bool)


class TestFgsm:
    def test_zero_epsilon_is_identity(self):
        res = run_attack("fgsm", logistic_net(W, B), X, 1, AttackConfig(epsilon=0.0))
        assert np.array_equal(res.adversarial, X)

    def test_closed_form_direction(self):
        eps = 0.1
        res = run_attack("fgsm", logistic_net(W, B), X, 1, AttackConfig(epsilon=eps))
        grad = logistic_grad(W, B, X.reshape(-1), 1)
        expected = np.clip(X + eps * np.sign(grad).reshape(X.shape), 0, 1)
        assert np.array_equal(res.adversarial, expected)

    def test_ignores_iterations_and_alpha(self):
        eps = 0.1
        res = run_attack("fgsm", logistic_net(W, B), X, 1, AttackConfig(epsilon=eps, iterations=5, alpha=0.01))
        grad = logistic_grad(W, B, X.reshape(-1), 1)
        assert np.array_equal(res.adversarial, np.clip(X + eps * np.sign(grad).reshape(X.shape), 0, 1))
        assert res.iterations_used == 1

    def test_ball_containment(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random((1, 2, 1))
            eps = float(rng.uniform(0, 0.5))
            res = run_attack("fgsm", logistic_net(W, B), x, 0, AttackConfig(epsilon=eps))
            assert res.linf <= eps + 1e-6
            assert res.adversarial.min() >= 0 and res.adversarial.max() <= 1


class TestIfgsm:
    def test_single_step_equals_fgsm(self):
        cfg = AttackConfig(epsilon=0.08, iterations=1, alpha=0.08)
        net = logistic_net(W, B)
        assert np.array_equal(
            run_attack("ifgsm", net, X, 1, cfg).adversarial, run_attack("fgsm", net, X, 1, cfg).adversarial
        )

    def test_hand_stepped_trace(self):
        eps, T = 0.09, 3
        alpha = eps / T
        net = logistic_net(W, B)
        res = run_attack("ifgsm", net, X, 1, AttackConfig(epsilon=eps, iterations=T))
        lo = np.maximum(X - eps, 0.0)
        hi = np.minimum(X + eps, 1.0)
        manual = X.copy()
        for _ in range(T):
            g = logistic_grad(W, B, manual.reshape(-1), 1).reshape(X.shape)
            manual = np.clip(manual + alpha * np.sign(g), lo, hi)
        assert np.array_equal(res.adversarial, manual)

    def test_every_iterate_within_ball(self):
        # Final iterate bound implies intermediate ones: the clip runs
        # every step, so check the tight final bound at several T.
        net = logistic_net(W, B)
        for T in (1, 2, 5):
            res = run_attack("ifgsm", net, X, 1, AttackConfig(epsilon=0.05, iterations=T))
            assert res.linf <= 0.05 + 1e-6


class TestPgd:
    def test_zero_epsilon_identity(self):
        res = run_attack("pgd", logistic_net(W, B), X, 1, AttackConfig(epsilon=0.0, iterations=4))
        assert np.array_equal(res.adversarial, X)

    def test_seeded_determinism(self):
        cfg = AttackConfig(epsilon=0.1, iterations=4, seed=42)
        net = logistic_net(W, B)
        a = run_attack("pgd", net, X, 1, cfg).adversarial
        b = run_attack("pgd", net, X, 1, cfg).adversarial
        assert np.array_equal(a, b)

    def test_projection_clamps_to_epsilon(self):
        eps = 0.05
        x = np.full((1, 2, 1), 0.5)
        lo = np.maximum(x - eps, 0.0)
        hi = np.minimum(x + eps, 1.0)
        overshot = x + 2 * eps
        assert np.allclose(np.clip(overshot, lo, hi), x + eps)

    def test_different_seeds_differ(self):
        net = logistic_net(W, B)
        a = run_attack("pgd", net, X, 1, AttackConfig(epsilon=0.1, iterations=2, seed=1)).adversarial
        b = run_attack("pgd", net, X, 1, AttackConfig(epsilon=0.1, iterations=2, seed=2)).adversarial
        assert not np.array_equal(a, b)


class TestMifgsm:
    def test_zero_momentum_equals_ifgsm(self):
        cfg = AttackConfig(epsilon=0.09, iterations=3, initial_decay=0.0)
        net = logistic_net(W, B)
        assert np.array_equal(
            run_attack("mifgsm", net, X, 1, cfg).adversarial, run_attack("ifgsm", net, X, 1, cfg).adversarial
        )

    def test_single_step_equals_fgsm_alpha(self):
        net = logistic_net(W, B)
        cfg = AttackConfig(epsilon=0.1, iterations=1, alpha=0.04, initial_decay=0.7)
        got = run_attack("mifgsm", net, X, 1, cfg).adversarial
        want = run_attack("fgsm", net, X, 1, AttackConfig(epsilon=0.04)).adversarial
        assert np.array_equal(got, want)

    def test_hand_stepped_trace_mu_one(self):
        eps, T, mu = 0.09, 3, 1.0
        alpha = eps / T
        net = logistic_net(W, B)
        res = run_attack("mifgsm", net, X, 1, AttackConfig(epsilon=eps, iterations=T, initial_decay=mu))
        lo, hi = np.maximum(X - eps, 0.0), np.minimum(X + eps, 1.0)
        manual = X.copy()
        g = np.zeros_like(X)
        for _ in range(T):
            grad = logistic_grad(W, B, manual.reshape(-1), 1).reshape(X.shape)
            g = mu * g + grad / np.abs(grad).sum()
            manual = np.clip(manual + alpha * np.sign(g), lo, hi)
        assert np.array_equal(res.adversarial, manual)

    def test_linear_model_saturates_to_fgsm_corner(self):
        # On a linear model the gradient sign never changes, so once the
        # ball saturates the iterates land exactly on the fgsm output.
        eps = 0.05
        net = logistic_net(W, B)
        x = np.array([0.5, 0.5]).reshape(1, 2, 1)
        many = run_attack("mifgsm", net, x, 1, AttackConfig(epsilon=eps, iterations=10, initial_decay=0.5))
        one = run_attack("fgsm", net, x, 1, AttackConfig(epsilon=eps))
        assert np.allclose(many.adversarial, one.adversarial, atol=1e-12)


class TestDeepfool:
    def test_linear_single_iteration_norm(self):
        eta = 0.07
        net = logistic_net(W, B)
        x = np.array([0.4, 0.6]).reshape(1, 2, 1)
        z = float(np.dot(W, x.reshape(-1)) + B)
        res = run_attack("deepfool", net, x, None, AttackConfig(iterations=50, overshoot=eta))
        assert res.success
        assert res.iterations_used == 1
        expected = (abs(z) + 1e-4) / np.abs(W).sum() * (1 + eta)
        assert res.linf == pytest.approx(expected, rel=1e-9)

    def test_boundary_point_flips_in_one_minimal_step(self):
        net = logistic_net([1.0, -1.0], 0.0)
        x = np.array([0.5, 0.5]).reshape(1, 2, 1)  # margin exactly zero
        res = run_attack("deepfool", net, x, None, AttackConfig(iterations=10, overshoot=0.0))
        assert res.success
        assert res.iterations_used == 1
        assert res.linf <= 1e-4  # minimal nudge

    def test_overshoot_scales_norm(self):
        net = logistic_net(W, B)
        x = np.array([0.45, 0.55]).reshape(1, 2, 1)
        r0 = run_attack("deepfool", net, x, None, AttackConfig(iterations=50, overshoot=0.0))
        r7 = run_attack("deepfool", net, x, None, AttackConfig(iterations=50, overshoot=0.07))
        d0 = r0.adversarial - x
        d7 = r7.adversarial - x
        assert np.allclose(d7, 1.07 * d0, atol=1e-12)
        assert r7.linf == pytest.approx(1.07 * r0.linf, rel=1e-9)


class TestRoiProgress:
    def test_identical_is_zero(self):
        a = np.random.default_rng(1).random((1, 3, 3, 1))
        assert roi_progress(a, a).tolist() == [0.0]

    def test_single_pixel_delta(self):
        a = np.zeros((1, 3, 3, 1))
        b = a.copy()
        b[0, 2, 0, 0] = 0.25
        assert roi_progress(a, b).tolist() == [0.25]

    def test_matches_sum_of_squares(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((1, 4, 4, 1)), rng.random((1, 4, 4, 1))
        expected = math.sqrt(((a - b) ** 2).sum())
        assert roi_progress(a, b)[0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            roi_progress(np.zeros((1, 2, 2, 1)), np.zeros((1, 3, 3, 1)))

    def test_batch_gives_one_distance_per_image(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((5, 4, 4, 2)), rng.random((5, 4, 4, 2))
        got = roi_progress(a, b)
        assert got.shape == (5,)
        assert got.tolist() == [roi_progress(p[None], q[None])[0] for p, q in zip(a, b)]


class TestKryptonite:
    def test_degenerate_equals_ifgsm(self):
        cfg = AttackConfig(epsilon=0.09, iterations=3, decay_weight=0.0, initial_decay=0.0)
        net = logistic_net(W, B)
        got = run_attack("kryptonite", net, X, 1, cfg, roi=FULL_ROI).adversarial
        want = run_attack("ifgsm", net, X, 1, cfg).adversarial
        assert np.array_equal(got, want)

    def test_single_step_equals_fgsm_alpha(self):
        net = logistic_net(W, B)
        cfg = AttackConfig(epsilon=0.1, iterations=1, alpha=0.03, decay_weight=0.5, initial_decay=0.5)
        got = run_attack("kryptonite", net, X, 1, cfg, roi=FULL_ROI).adversarial
        want = run_attack("fgsm", net, X, 1, AttackConfig(epsilon=0.03)).adversarial
        assert np.array_equal(got, want)

    def test_hand_stepped_trace_with_progress_decay(self):
        eps, T, omega, mu0 = 0.09, 3, 0.5, 0.5
        alpha = eps / T
        net = logistic_net(W, B)
        res = run_attack(
            "kryptonite", net, X, 1,
            AttackConfig(epsilon=eps, iterations=T, decay_weight=omega, initial_decay=mu0),
            roi=FULL_ROI,
        )
        lo, hi = np.maximum(X - eps, 0.0), np.minimum(X + eps, 1.0)
        manual = X.copy()
        g = np.zeros_like(X)
        mu = mu0
        prev = manual.copy()
        mus, progresses = [], []
        for _ in range(T):
            grad = logistic_grad(W, B, manual.reshape(-1), 1).reshape(X.shape)
            g = mu * g + grad / np.abs(grad).sum()
            manual = np.clip(manual + alpha * np.sign(g), lo, hi)
            progress = math.sqrt(((manual - prev) ** 2).sum())
            mu = omega / max(progress, P_FLOOR)
            mus.append(mu)
            progresses.append(progress)
            prev = manual.copy()
        assert np.array_equal(res.adversarial, manual)
        assert res.mu.tolist() == mus
        assert res.progress.tolist() == progresses

    def test_trace_bookkeeping_exact(self):
        cfg = AttackConfig(epsilon=0.1, iterations=4, decay_weight=0.37, initial_decay=0.5)
        res = run_attack("kryptonite", logistic_net(W, B), X, 1, cfg, roi=FULL_ROI)
        for mu, progress in zip(res.mu, res.progress):
            assert mu == cfg.decay_weight / max(progress, P_FLOOR)

    def test_unclamped_steps_equal_fixed_momentum(self):
        # alpha * T = eps and pixels far from 0 and 1: every step moves the
        # whole RoI, so mu is one constant and mifgsm with it agrees.
        eps, T, omega = 0.08, 4, 0.02
        net = build([flatten(), dense(8), relu(), dense(1), sigmoid()], (4, 4, 1), seed=3)
        rng = np.random.default_rng(5)
        roi = np.zeros((4, 4), dtype=bool)
        roi[1:3, 0:3] = True
        for _ in range(10):
            x = rng.uniform(0.3, 0.7, size=(4, 4, 1))
            y = int(rng.integers(0, 2))
            cfg = AttackConfig(epsilon=eps, iterations=T, decay_weight=omega, initial_decay=0.9)
            res = run_attack("kryptonite", net, x, y, cfg, roi=roi)
            expected = cfg.step * math.sqrt(roi.sum())
            for progress in res.progress:
                assert progress == pytest.approx(expected, rel=1e-12)
            fixed = AttackConfig(epsilon=eps, iterations=T, initial_decay=res.mu[0])
            got = run_attack("mifgsm", net, x, y, fixed).adversarial
            assert np.allclose(got, res.adversarial, rtol=0, atol=1e-12)

    def test_documented_constant_factor_test(self):
        # run_attack's docstring: with alpha * T <= eps and no RoI value at
        # the [0, 1] clamp, mu stays constant up to rounding, which is what
        # np.ptp(res.mu) <= 1e-9 * res.mu.max() tests; progress sums round
        # differently from step to step, so an exact ptp == 0 misses it.
        cfg = AttackConfig(epsilon=0.08, iterations=4, decay_weight=0.02, initial_decay=0.5)
        net = logistic_net(W, B)  # y = 1 pushes pixel 0 down and pixel 1 up
        free = run_attack("kryptonite", net, X, 1, cfg, roi=FULL_ROI).mu
        assert np.ptp(free) <= 1e-9 * free.max()
        assert np.ptp(free) > 0
        clamped = run_attack("kryptonite", net, np.array([0.03, 0.97]).reshape(X.shape), 1, cfg, roi=FULL_ROI).mu
        assert np.ptp(clamped) > 1e-9 * clamped.max()

    def test_empty_roi_rejected(self):
        with pytest.raises(EmptyRoIError):
            run_attack(
                "kryptonite", logistic_net(W, B), X, 1, AttackConfig(epsilon=0.1), roi=np.zeros((1, 2), dtype=bool)
            )

    def test_reference_operating_point_accepted(self):
        cfg = AttackConfig(epsilon=0.01, iterations=15, initial_decay=0.5)
        assert cfg.step == pytest.approx(0.01 / 15)
        res = run_attack("kryptonite", logistic_net(W, B), X, 1, cfg, roi=FULL_ROI)
        assert res.linf <= 0.01 + 1e-6


class TestKryptoniteMasked:
    def test_full_mask_identical_to_unmasked(self):
        cfg = AttackConfig(epsilon=0.09, iterations=3, decay_weight=0.5, initial_decay=0.5)
        net = logistic_net(W, B)
        a = run_attack("kryptonite", net, X, 1, cfg, roi=FULL_ROI).adversarial
        b = run_attack("kryptonite_masked", net, X, 1, cfg, roi=FULL_ROI).adversarial
        assert np.array_equal(a, b)

    def test_changes_confined_to_mask(self):
        mask = np.array([[True, False]])
        cfg = AttackConfig(epsilon=0.2, iterations=5, decay_weight=0.3, initial_decay=0.5)
        res = run_attack("kryptonite_masked", logistic_net(W, B), X, 1, cfg, roi=mask)
        assert res.adversarial[0, 1, 0] == X[0, 1, 0]

    def test_single_pixel_mask_moves_by_alpha(self):
        mask = np.array([[True, False]])
        eps, T = 0.1, 4
        alpha = eps / T
        net = logistic_net(W, B)
        res = run_attack(
            "kryptonite_masked", net, X, 1, AttackConfig(epsilon=eps, iterations=T, decay_weight=0.2), roi=mask
        )
        moved = abs(res.adversarial[0, 0, 0] - X[0, 0, 0])
        # one +-alpha step per iteration, saturating at epsilon
        assert moved <= eps + 1e-12
        assert moved == pytest.approx(min(T * alpha, eps))


class TestRoiFallback:
    def test_constant_image_falls_back_to_full_frame(self):
        mask = extract_roi_or_full(np.full((8, 8, 1), 0.4))
        assert mask.dtype == np.bool_ and mask.all() and mask.shape == (8, 8)

    def test_out_of_range_image_raises(self):
        img = np.full((8, 8, 1), 0.4)
        img[2:5, 2:5] = 1.5
        with pytest.raises(ValueError, match="outside"):
            extract_roi_or_full(img)


class TestBallFuzz:
    def test_all_attacks_respect_ball_and_range(self):
        rng = np.random.default_rng(11)
        net = logistic_net(W, B)
        for _ in range(40):
            x = rng.random((1, 2, 1))
            eps = float(rng.uniform(0, 0.3))
            T = int(rng.integers(1, 5))
            cfg = AttackConfig(epsilon=eps, iterations=T, decay_weight=0.2, seed=int(rng.integers(1000)))
            results = [
                run_attack("fgsm", net, x, 1, cfg),
                run_attack("ifgsm", net, x, 1, cfg),
                run_attack("pgd", net, x, 1, cfg),
                run_attack("mifgsm", net, x, 1, cfg),
                run_attack("kryptonite", net, x, 1, cfg, roi=FULL_ROI),
                run_attack("kryptonite_masked", net, x, 1, cfg, roi=FULL_ROI),
                run_attack("deepfool", net, x, None, AttackConfig(epsilon=1.0, iterations=T)),
            ]
            for res in results:
                eps_used = 1.0 if res is results[-1] else eps
                assert res.linf <= eps_used + 1e-6
                assert res.adversarial.min() >= 0.0
                assert res.adversarial.max() <= 1.0


SIGN_STEP_KINDS = ("fgsm", "ifgsm", "pgd", "mifgsm", "kryptonite", "kryptonite_masked")


def batch_problem(n=37, seed=4):
    """An MLP on 4x4 images, n random images and labels, and random
    non-empty RoIs; n crosses two chunk boundaries."""
    assert n > 2 * ATTACK_CHUNK
    net = build([flatten(), dense(8), relu(), dense(1), sigmoid()], (4, 4, 1), seed=seed)
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 4, 4, 1))
    ys = rng.integers(0, 2, size=n)
    rois = rng.random((n, 4, 4)) < 0.5
    rois[:, 1, 1] = True
    return net, xs, ys, rois


def loop_reference(kind, net, xs, ys, rois, cfg):
    """run_attack on each row i, with None where the sample's gradient
    vanishes (run_attacks brings that row back unmoved)."""
    out = []
    for i in range(xs.shape[0]):
        try:
            out.append(run_attack(kind, net, xs[i], ys[i], cfg, roi=rois[i]))
        except ZeroGradientError:
            out.append(None)
    return out


def assert_same(batched, looped, xs):
    assert batched.adversarial.shape == xs.shape and len(looped) == xs.shape[0]
    for i, want in enumerate(looped):
        got = (batched.linf[i], batched.l2_percent[i], batched.iterations_used[i], batched.success[i])
        if want is None:
            assert np.array_equal(batched.adversarial[i], xs[i])
            assert got == (0.0, 0.0, 0, False)
            continue
        assert np.array_equal(batched.adversarial[i], want.adversarial)
        assert got == (want.linf, want.l2_percent, want.iterations_used, want.success)
        # Batched matrix products round apart from N=1 ones, so the
        # momentum accumulator agrees only to rounding; the bit-equal
        # adversarials pin its sign, and the factors must match exactly.
        for steps, ref in ((batched.mu, want.mu), (batched.progress, want.progress)):
            assert (steps is None and ref is None) or np.array_equal(steps[i], ref)


class TestRunAttacks:
    CFG = AttackConfig(epsilon=0.1, iterations=4, decay_weight=0.05, initial_decay=0.5, seed=3)

    # ids keep the kind-False form they had when a second axis switched
    # per-iterate RoI re-extraction, so results compare across versions.
    @pytest.mark.parametrize("kind", SIGN_STEP_KINDS, ids=lambda k: f"{k}-False")
    def test_batch_equals_per_sample_loop(self, kind):
        net, xs, ys, rois = batch_problem()
        batched = run_attacks(kind, net, xs, ys, self.CFG, rois=rois)
        assert_same(batched, loop_reference(kind, net, xs, ys, rois, self.CFG), xs)

    @pytest.mark.parametrize("kind", ATTACK_NAMES)
    def test_empty_batch_is_rejected(self, kind):
        net, xs, ys, rois = batch_problem()
        with pytest.raises(EmptyBatchError):
            run_attacks(kind, net, xs[:0], ys[:0], self.CFG, rois=rois[:0])

    @pytest.mark.parametrize("kind", ["mifgsm", "kryptonite"])
    def test_zero_gradient_row_mid_chunk_comes_back_unmoved(self, kind, zero_gradient_at):
        net, xs, ys, rois = batch_problem()
        flat = 2 * ATTACK_CHUNK - 9  # inside the second chunk
        zero_gradient_at(xs[flat].copy())
        batched = run_attacks(kind, net, xs, ys, self.CFG, rois=rois)
        looped = loop_reference(kind, net, xs, ys, rois, self.CFG)
        assert [i for i, r in enumerate(looped) if r is None] == [flat]
        assert_same(batched, looped, xs)  # the flat row unmoved: clean image, 0.0, 0.0, 0, False
        assert np.flatnonzero(batched.zero).tolist() == [flat]
        if kind in ROI_ATTACKS:
            assert np.isnan(batched.mu[flat]).all() and np.isnan(batched.progress[flat]).all()

    @pytest.mark.parametrize("kind", ATTACK_NAMES)
    def test_mu_and_progress_per_step_for_roi_kinds_only(self, kind):
        net, xs, ys, rois = batch_problem()
        res = run_attacks(kind, net, xs, ys, self.CFG, rois=rois)
        if kind in ROI_ATTACKS:
            assert res.mu.dtype == res.progress.dtype == np.float64
            assert res.mu.shape == res.progress.shape == (xs.shape[0], self.CFG.iterations)
        else:
            assert res.mu is None and res.progress is None

    def test_pgd_start_noise_is_shared_across_rows(self, monkeypatch):
        net, _, ys, _ = batch_problem()
        xs = np.random.default_rng(8).uniform(0.3, 0.7, size=(ys.size, 4, 4, 1))
        monkeypatch.setattr(Network, "input_gradient", lambda self, x, y: np.zeros_like(x))
        cfg = AttackConfig(epsilon=0.1, iterations=2, seed=11)
        noise = np.random.default_rng(cfg.seed).uniform(-cfg.epsilon, cfg.epsilon, size=xs.shape[1:])
        res = run_attacks("pgd", net, xs, ys, cfg)
        for i in range(xs.shape[0]):
            assert np.array_equal(res.adversarial[i], xs[i] + noise)

    def test_deepfool_batch_matches_per_sample_loop(self):
        net, xs, ys, _ = batch_problem()
        cfg = AttackConfig(epsilon=1.0, iterations=3, overshoot=0.02)
        batched = run_attacks("deepfool", net, xs, ys, cfg)
        looped = [run_attack("deepfool", net, x, y, cfg) for x, y in zip(xs, ys)]
        for i, want in enumerate(looped):
            assert (batched.success[i], batched.iterations_used[i]) == (want.success, want.iterations_used)
            assert np.abs(batched.adversarial[i] - want.adversarial).max() <= 1e-15
        # Rows the network already misclassifies (the attack starts from
        # the prediction, not the label), rows that flip after one and two
        # steps, and rows that never flip in the budget all share chunks.
        assert (net.predict(xs) != ys).any()
        outcomes = set(zip(batched.iterations_used.tolist(), batched.success.tolist()))
        assert {(1, True), (2, True), (3, False)} <= outcomes

    @pytest.mark.parametrize("iterations", [1, 3, 8])
    def test_deepfool_chunk_predicts_only_before_and_after(self, monkeypatch, iterations):
        # Each margin pass labels its own rows, so a chunk's only forwards
        # for labels are the clean prediction and the final one.
        net, xs, ys, _ = batch_problem()
        real = Network.predict
        rows = []
        monkeypatch.setattr(Network, "predict", lambda self, x: rows.append(len(x)) or real(self, x))
        res = run_attacks("deepfool", net, xs[:ATTACK_CHUNK], ys[:ATTACK_CHUNK], AttackConfig(iterations=iterations))
        assert rows == [ATTACK_CHUNK, ATTACK_CHUNK]
        assert res.iterations_used.max() == min(iterations, 4)  # the last row flips at step 4
