"""White-box attacks on [0, 1] images under an L-infinity budget.

All attacks return an AttackResult whose adversarial image satisfies
‖x* − x‖_inf <= epsilon and stays inside [0, 1]. Sign steps use the
mathematical sign (sign(0) = 0), so pixels with zero gradient never move.
Every attack is deterministic given its config; the projected-descent
attack draws its random start from the config seed. All but the
hyperplane-stepping attack run one projected sign-step recurrence; they
differ only in its start, its momentum rule and its step mask.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateImageError,
    DimensionMismatchError,
    EmptyRoIError,
    NoContourError,
    ZeroGradientError,
    ZeroImageError,
)
from .imagekit import apply_mask, roi_mask, square_kernel
from .metrics import lp_norm, perturbation_percent

P_FLOOR = 1e-8  # progress floor guarding the decay-factor division
_CROSS = 1e-4  # additive margin so boundary-sitting points still flip


@dataclass
class AttackConfig:
    """Shared attack hyperparameters.

    alpha defaults to epsilon / iterations when unset. decay_weight drives
    the adaptive momentum of the RoI-guided attack; initial_decay is the
    fixed momentum factor of the plain momentum attack (and the t=0 factor
    of the adaptive one). overshoot scales the hyperplane-stepping attack's
    final push past the boundary.
    """

    epsilon: float = 1.0
    iterations: int = 1
    alpha: float | None = None
    decay_weight: float = 0.05
    initial_decay: float = 0.5
    overshoot: float = 0.06
    kernel_size: int = 5
    seed: int = 0
    roi_reextract: bool = False

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.alpha is not None and self.alpha <= 0.0:
            raise ValueError("alpha must be > 0 when given")
        if self.decay_weight < 0.0 or self.initial_decay < 0.0 or self.overshoot < 0.0:
            raise ValueError("decay_weight, initial_decay and overshoot must be >= 0")

    @property
    def step(self) -> float:
        return self.alpha if self.alpha is not None else self.epsilon / self.iterations


@dataclass
class MomentumState:
    """Per-iteration bookkeeping of the RoI-guided attack."""

    g: np.ndarray
    mu: float
    progress: float


@dataclass
class AttackResult:
    adversarial: np.ndarray
    linf: float
    l2_percent: float
    iterations_used: int
    success: bool
    elapsed: float
    trace: list[MomentumState] | None = field(default=None, repr=False)


def _ball(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.maximum(x - epsilon, 0.0)
    hi = np.minimum(x + epsilon, 1.0)
    return lo, hi


def _finish(net, x, adv, success: bool, iterations: int, t0: float, trace=None) -> AttackResult:
    try:
        percent = perturbation_percent(x, adv)
    except ZeroImageError:
        percent = math.nan
    return AttackResult(
        adversarial=adv,
        linf=lp_norm(x, adv, math.inf),
        l2_percent=percent,
        iterations_used=iterations,
        success=success,
        elapsed=time.perf_counter() - t0,
        trace=trace,
    )


def _grad_or_raise(net, x, y) -> tuple[np.ndarray, float]:
    grad = net.input_gradient(x, y)
    l1 = float(np.abs(grad).sum())
    if l1 == 0.0:
        raise ZeroGradientError("loss gradient is identically zero")
    return grad, l1


def _sign_steps(net, x, y, cfg, start=None, decay=None, roi=None, step_mask=None) -> AttackResult:
    """The projected sign-step recurrence of fgsm, ifgsm, pgd, mifgsm and
    both RoI-guided attacks.

    They differ in three settings. The start is the clean image, or
    `start` projected into the ball. The momentum is none (decay None:
    step on the raw gradient sign, with no zero-gradient check), a fixed
    factor `decay` applied to L1-normalized gradients, or, when `roi` is
    given, a factor reset after each step to decay_weight / progress
    inside the RoI, with a trace of every step. `step_mask` zeroes the
    step outside it.
    """
    t0 = time.perf_counter()
    lo, hi = _ball(x, cfg.epsilon)
    alpha = cfg.step
    adv = x.copy() if start is None else np.clip(start, lo, hi)
    g = np.zeros_like(x)
    trace = None
    if roi is not None:
        mask = roi
        rho_prev = apply_mask(adv, mask)
        trace = []
    for _ in range(cfg.iterations):
        if decay is None:
            g = net.input_gradient(adv, y)
        else:
            grad, l1 = _grad_or_raise(net, adv, y)
            g = decay * g + grad / l1
        update = alpha * np.sign(g)
        if step_mask is not None:
            update = update * step_mask
        adv = np.clip(adv + update, lo, hi)
        if roi is not None:
            if cfg.roi_reextract:
                mask = _roi_or(adv, cfg, mask)
            rho_next = apply_mask(adv, mask)
            progress = roi_progress(rho_prev, rho_next)
            decay = cfg.decay_weight / max(progress, P_FLOOR)
            trace.append(MomentumState(g=g.copy(), mu=decay, progress=progress))
            rho_prev = rho_next
    return _finish(net, x, adv, int(net.predict(adv)) != int(y), cfg.iterations, t0, trace)


def fgsm(net, x: np.ndarray, y, cfg: AttackConfig) -> AttackResult:
    """Single sign step of size epsilon; cfg.iterations and cfg.alpha are
    ignored."""
    return _sign_steps(net, x, y, replace(cfg, iterations=1, alpha=None))


def ifgsm(net, x: np.ndarray, y, cfg: AttackConfig) -> AttackResult:
    """Iterated sign steps, each projected into the epsilon-ball."""
    return _sign_steps(net, x, y, cfg)


def pgd(net, x: np.ndarray, y, cfg: AttackConfig) -> AttackResult:
    """Seeded random start in the ball, then projected sign descent."""
    rng = np.random.default_rng(cfg.seed)
    return _sign_steps(net, x, y, cfg, start=x + rng.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape))


def mifgsm(net, x: np.ndarray, y, cfg: AttackConfig) -> AttackResult:
    """Momentum accumulation of L1-normalized gradients, then sign steps.

    The momentum factor is cfg.initial_decay and stays fixed. Raises
    ZeroGradientError on a flat loss surface rather than stepping nowhere.
    """
    return _sign_steps(net, x, y, cfg, decay=cfg.initial_decay)


def _binary_margin(net, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed distance surrogate and its input gradient for a binary head."""
    z = net.logits(x)
    if net.head.kind == "sigmoid":
        return float(z[0]), net.logit_backprop(x, np.array([1.0]))
    if net.shapes[-1][0] != 2:
        raise DimensionMismatchError("hyperplane stepping needs a binary head")
    return float(z[1] - z[0]), net.logit_backprop(x, np.array([-1.0, 1.0]))


def deepfool_linf(net, x: np.ndarray, cfg: AttackConfig) -> AttackResult:
    """Minimal-looking L-infinity steps across the decision boundary.

    Each iteration linearizes the logit margin f and moves every pixel by
    (|f| + 1e-4) / ‖∇f‖_1 against the margin sign, scaled by
    (1 + overshoot); iteration stops at the first label flip. The result
    is projected into the configured epsilon-ball (the default budget of
    1.0 leaves it untouched beyond the [0, 1] clamp).
    """
    t0 = time.perf_counter()
    lo, hi = _ball(x, cfg.epsilon)
    y0 = int(net.predict(x))
    # Push the margin away from the predicted class; deriving the sign
    # from the prediction (strict > threshold) keeps boundary-sitting
    # points moving in the flipping direction.
    direction = -1.0 if y0 == 1 else 1.0
    adv = x.copy()
    used = 0
    for _ in range(cfg.iterations):
        if int(net.predict(adv)) != y0:
            break
        z, w = _binary_margin(net, adv)
        l1 = float(np.abs(w).sum())
        if l1 == 0.0:
            raise ZeroGradientError("margin gradient is identically zero")
        step = (abs(z) + _CROSS) / l1 * (1.0 + cfg.overshoot)
        adv = np.clip(adv + direction * step * np.sign(w), 0.0, 1.0)
        used += 1
    adv = np.clip(adv, lo, hi)
    return _finish(net, x, adv, int(net.predict(adv)) != y0, used, t0)


def roi_progress(rho_prev: np.ndarray, rho_next: np.ndarray) -> float:
    """Euclidean distance between successive RoI-masked iterates."""
    if rho_prev.shape != rho_next.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {rho_prev.shape} vs {rho_next.shape}"
        )
    return lp_norm(rho_prev, rho_next, 2)


def _kryptonite_core(net, x, y, roi, cfg, confine: bool) -> AttackResult:
    if roi.dtype != np.bool_ or roi.shape != x.shape[:2]:
        raise DimensionMismatchError("roi must be a boolean (H, W) mask matching x")
    if int(roi.sum()) < 1:
        raise EmptyRoIError("region of interest is empty")
    step_mask = roi[:, :, None].astype(float) if confine else None
    return _sign_steps(net, x, y, cfg, decay=cfg.initial_decay, roi=roi, step_mask=step_mask)


def kryptonite(net, x: np.ndarray, y, roi: np.ndarray, cfg: AttackConfig) -> AttackResult:
    """Momentum attack whose decay factor tracks progress inside the RoI.

    Per iteration: accumulate the L1-normalized gradient with factor mu,
    take a projected sign step everywhere, measure the Euclidean change of
    the RoI-masked image, and set the next factor to
    decay_weight / max(progress, 1e-8). The mask is extracted once from
    the clean image unless cfg.roi_reextract recomputes it per iterate.
    The returned trace records (g, mu, progress) for every step.

    With a fixed mask, a step moves each RoI value by alpha or not at all,
    so progress = alpha * sqrt(number of RoI values the step moved).
    Whenever alpha * iterations <= epsilon the ball projection never
    binds, and that number is the count of RoI values not held at 0 or 1
    by the pixel-range clamp (nor left still by a zero momentum entry).
    If none is held, progress is alpha * sqrt(|RoI| * channels) at every
    step, mu is a per-image constant, and the attack equals the
    fixed-momentum attack with initial_decay set to that mu (the first
    factor multiplies a zero accumulator, so it never matters).
    """
    return _kryptonite_core(net, x, y, roi, cfg, confine=False)


def kryptonite_masked(net, x: np.ndarray, y, roi: np.ndarray, cfg: AttackConfig) -> AttackResult:
    """Same recurrence with the sign step zeroed outside the RoI, so
    pixels off the mask never change."""
    return _kryptonite_core(net, x, y, roi, cfg, confine=True)


ATTACK_NAMES = ("fgsm", "ifgsm", "pgd", "mifgsm", "deepfool", "kryptonite", "kryptonite_masked")


def run_attack(
    name: str,
    net,
    x: np.ndarray,
    y,
    cfg: AttackConfig,
    roi: np.ndarray | None = None,
) -> AttackResult:
    """Dispatch an attack by name with uniform RoI handling.

    The RoI-guided attacks receive `roi` or, when absent, the mask
    extracted from the clean image (full-frame fallback if extraction
    fails). The hyperplane-stepping attack ignores the label.
    """
    if name == "fgsm":
        return fgsm(net, x, y, cfg)
    if name == "ifgsm":
        return ifgsm(net, x, y, cfg)
    if name == "pgd":
        return pgd(net, x, y, cfg)
    if name == "mifgsm":
        return mifgsm(net, x, y, cfg)
    if name == "deepfool":
        return deepfool_linf(net, x, cfg)
    if name in ("kryptonite", "kryptonite_masked"):
        if roi is None:
            roi = extract_roi_or_full(x, cfg)
        fn = kryptonite if name == "kryptonite" else kryptonite_masked
        return fn(net, x, y, roi, cfg)
    raise ValueError(f"unknown attack {name!r}; choose from {ATTACK_NAMES}")


def extract_roi_or_full(x: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Clean-image RoI mask; degenerate or contourless inputs fall back to
    the full frame so the attack still runs."""
    return _roi_or(x, cfg, np.ones(x.shape[:2], dtype=bool))


def _roi_or(img: np.ndarray, cfg: AttackConfig, fallback: np.ndarray) -> np.ndarray:
    """RoI mask of img, or `fallback` when img is single-intensity or
    binarizes to no contour."""
    try:
        return roi_mask(img, square_kernel(cfg.kernel_size))
    except (DegenerateImageError, NoContourError):
        return fallback
