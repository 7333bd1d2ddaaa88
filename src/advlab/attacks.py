"""White-box attacks on [0, 1] images under an L-infinity budget.

Every attack returns one AttackResult of arrays, a row per sample, whose
adversarial images satisfy ‖x* − x‖_inf <= epsilon and stay inside [0, 1]. Sign steps use the
mathematical sign (sign(0) = 0), so pixels with zero gradient never move.
Every attack is deterministic given its config; the projected-descent
attack draws its random start from the config seed. All but the
hyperplane-stepping attack run one projected sign-step recurrence; they
differ only in its start, its momentum rule and its step mask.

Both loops run over a batch (N, H, W, C) with per-sample state, so a
sample's arithmetic is its own. Its gradient is not bit for bit the N=1
one: the network's batched matrix products round apart from single-row
ones (by about 1e-16). `run_attack` attacks one sample by name, an N=1
call into the loops; `run_attacks` attacks a batch ATTACK_CHUNK rows at
a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateImageError,
    DimensionMismatchError,
    EmptyBatchError,
    EmptyRoIError,
    NoContourError,
    ZeroGradientError,
    ZeroImageError,
)
from .imagekit import roi_mask
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
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0 when given, got {self.alpha}")
        factors = (self.decay_weight, self.initial_decay, self.overshoot)
        if not all(np.isfinite(v) and v >= 0.0 for v in factors):
            raise ValueError(f"decay_weight, initial_decay and overshoot must be finite and >= 0, got {factors}")

    @property
    def step(self) -> float:
        return self.alpha if self.alpha is not None else self.epsilon / self.iterations


@dataclass
class AttackResult:
    """Attacked samples, every field with a leading row axis N.

    adversarial is (N, H, W, C); linf, l2_percent (NaN for an all-zero
    clean image), iterations_used, success, zero and elapsed are (N,).
    zero flags a row whose loss or margin gradient vanished at some step.
    The RoI-guided attacks also record, per step, the momentum factor mu
    set after it and the RoI progress that set it, (N, iterations); both
    are None for the other attacks. result[i] is row i of every field.
    """

    adversarial: np.ndarray
    linf: np.ndarray
    l2_percent: np.ndarray
    iterations_used: np.ndarray
    success: np.ndarray
    zero: np.ndarray
    elapsed: np.ndarray
    mu: np.ndarray | None = field(default=None, repr=False)
    progress: np.ndarray | None = field(default=None, repr=False)

    def __getitem__(self, i) -> AttackResult:
        return AttackResult(**{k: None if v is None else v[i] for k, v in vars(self).items()})


def _ball(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.maximum(x - epsilon, 0.0)
    hi = np.minimum(x + epsilon, 1.0)
    return lo, hi


def _percent(x: np.ndarray, adv: np.ndarray) -> float:
    try:
        return perturbation_percent(x, adv)
    except ZeroImageError:
        return math.nan


def _scored(xs, adv, success, iterations, zero, mu=None, progress=None) -> AttackResult:
    """A loop's rows, each scored against its clean image by one lp_norm
    and one perturbation_percent call; run_attacks sets elapsed."""
    linf = np.array([lp_norm(x, a, math.inf) for x, a in zip(xs, adv)])
    l2_percent = np.array([_percent(x, a) for x, a in zip(xs, adv)])
    return AttackResult(adv, linf, l2_percent, iterations, success, zero, np.zeros(len(xs)), mu, progress)


def _sign_steps(net, xs, ys, cfg, start=None, decay=None, rois=None, confine=False) -> AttackResult:
    """The projected sign-step recurrence of fgsm, ifgsm, pgd, mifgsm and
    both RoI-guided attacks, over a batch xs (N, H, W, C) labelled ys (N,).

    They differ in three settings. The start is the clean image, or
    `start` projected into the ball. The momentum is none (decay None:
    step on the raw gradient sign, with no zero-gradient check), a fixed
    factor `decay` applied to L1-normalized gradients, or, when `rois`
    (N, H, W) is given, a factor reset after each step to decay_weight /
    progress inside each row's RoI, recording both per step.
    `confine` zeroes the step outside the clean-image RoI.

    Each row keeps its own L1 norm, factor, progress and mask; only the
    gradient's rounding depends on the batch (see the module docstring).
    A row whose normalized gradient is identically zero at some step is
    flagged in `zero`; it steps on in the batch, and callers discard it.
    """
    n = xs.shape[0]
    lo, hi = _ball(xs, cfg.epsilon)
    alpha = cfg.step
    adv = xs.copy() if start is None else np.clip(start, lo, hi)
    g = np.zeros_like(xs)
    zero = np.zeros(n, dtype=bool)
    mu = None if decay is None else np.full(n, float(decay))
    mus = progresses = None
    if rois is not None:
        step_mask = rois[..., None].astype(float) if confine else None
        rho_prev = adv * rois[..., None]
        mus = np.empty((n, cfg.iterations))
        progresses = np.empty((n, cfg.iterations))
    for t in range(cfg.iterations):
        grad = net.input_gradient(adv, ys)
        if mu is None:
            g = grad
        else:
            l1 = np.abs(grad).reshape(n, -1).sum(axis=1)
            flat = l1 == 0.0
            zero |= flat
            g = mu[:, None, None, None] * g + grad / np.where(flat, 1.0, l1)[:, None, None, None]
        update = alpha * np.sign(g)
        if confine:
            update = update * step_mask
        adv = np.clip(adv + update, lo, hi)
        if rois is not None:
            rho_next = adv * rois[..., None]
            progress = roi_progress(rho_prev, rho_next)
            mu = cfg.decay_weight / np.maximum(progress, P_FLOOR)
            mus[:, t], progresses[:, t] = mu, progress
            rho_prev = rho_next
    success = net.predict(adv) != ys
    return _scored(xs, adv, success, np.full(n, cfg.iterations), zero, mus, progresses)


def _binary_margin(net, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, signed distance surrogate and its input gradient, per row,
    for a binary head, from one pass."""
    if net.head.kind == "sigmoid":
        dz = np.array([1.0])
    elif net.shapes[-1][0] == 2:
        dz = np.array([-1.0, 1.0])
    else:
        raise DimensionMismatchError("hyperplane stepping needs a binary head")
    labels, z, w = net.logit_backprop(xs, dz)
    return labels, z @ dz, w


def _deepfool(net, xs: np.ndarray, cfg: AttackConfig) -> AttackResult:
    """The hyperplane-stepping loop over a batch xs (N, H, W, C).

    A row leaves the active set when a step's margin pass finds its label
    flipped, so the network sees it once more after its flipping step, or
    flagged in `zero` when its margin gradient vanishes unflipped.
    """
    n = xs.shape[0]
    lo, hi = _ball(xs, cfg.epsilon)
    y0 = net.predict(xs)
    # Push the margin away from the predicted class; deriving the sign
    # from the prediction (strict > threshold) keeps boundary-sitting
    # points moving in the flipping direction.
    direction = np.where(y0 == 1, -1.0, 1.0)
    adv = xs.copy()
    used = np.zeros(n, dtype=int)
    zero = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(cfg.iterations):
        labels, z, w = _binary_margin(net, adv[active])
        l1 = np.abs(w).reshape(active.size, -1).sum(axis=1)
        unflipped = labels == y0[active]
        zero[active[unflipped & ~(l1 > 0.0)]] = True
        moving = unflipped & (l1 > 0.0)
        active, z, w, l1 = active[moving], z[moving], w[moving], l1[moving]
        if not active.size:
            break
        step = (np.abs(z) + _CROSS) / l1 * (1.0 + cfg.overshoot)
        push = (direction[active] * step)[:, None, None, None]
        adv[active] = np.clip(adv[active] + push * np.sign(w), 0.0, 1.0)
        used[active] += 1
    adv = np.clip(adv, lo, hi)
    return _scored(xs, adv, net.predict(adv) != y0, used, zero)


def roi_progress(rho_prev: np.ndarray, rho_next: np.ndarray) -> np.ndarray:
    """Euclidean distance between successive RoI-masked iterates, one per
    image of two (N, H, W, C) batches: an (N,) array."""
    if rho_prev.shape != rho_next.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {rho_prev.shape} vs {rho_next.shape}"
        )
    diff = (rho_next - rho_prev).reshape(rho_prev.shape[0], -1)
    return np.sqrt((diff**2).sum(axis=-1))


ATTACK_NAMES = ("fgsm", "ifgsm", "pgd", "mifgsm", "deepfool", "kryptonite", "kryptonite_masked")
ROI_ATTACKS = ("kryptonite", "kryptonite_masked")
# Rows per batched call. At 16 rows a gradient costs about as little per
# row as at 150, while a chunk's per-step activations stay small: one
# 150-row batch raised an experiment's peak memory by a third.
ATTACK_CHUNK = 16


def _attack_batch(kind: str, net, xs, ys, cfg: AttackConfig, rois) -> AttackResult:
    """Run attack `kind` on one batch (see run_attack for each contract)."""
    if kind == "fgsm":
        return _sign_steps(net, xs, ys, replace(cfg, iterations=1, alpha=None))
    if kind == "ifgsm":
        return _sign_steps(net, xs, ys, cfg)
    if kind == "pgd":
        rng = np.random.default_rng(cfg.seed)
        return _sign_steps(net, xs, ys, cfg, start=xs + rng.uniform(-cfg.epsilon, cfg.epsilon, size=xs.shape[1:]))
    if kind == "mifgsm":
        return _sign_steps(net, xs, ys, cfg, decay=cfg.initial_decay)
    if kind == "deepfool":
        return _deepfool(net, xs, cfg)
    if kind in ROI_ATTACKS:
        if rois is None:
            rois = np.stack([extract_roi_or_full(x) for x in xs])
        if rois.dtype != np.bool_ or rois.shape != xs.shape[:3]:
            raise DimensionMismatchError("roi must be a boolean (H, W) mask matching x")
        if not rois.reshape(rois.shape[0], -1).any(axis=1).all():
            raise EmptyRoIError("region of interest is empty")
        confine = kind == "kryptonite_masked"
        return _sign_steps(net, xs, ys, cfg, decay=cfg.initial_decay, rois=rois, confine=confine)
    raise ValueError(f"unknown attack {kind!r}; choose from {ATTACK_NAMES}")


def run_attack(
    kind: str,
    net,
    x: np.ndarray,
    y,
    cfg: AttackConfig,
    roi: np.ndarray | None = None,
) -> AttackResult:
    """Attack one sample by kind: the batched loops at N=1.

    - fgsm: one sign step of size epsilon; cfg.iterations and cfg.alpha
      are ignored.
    - ifgsm: iterated sign steps of cfg.step, each projected into the
      epsilon-ball.
    - pgd: the same from a random start in the ball. The start noise is
      drawn from cfg.seed alone, so every sample (and every row of a
      batch) gets the same.
    - mifgsm: momentum accumulation of L1-normalized gradients with the
      fixed factor cfg.initial_decay, then sign steps.
    - deepfool: minimal-looking steps across the decision boundary. Each
      iteration linearizes the logit margin f and moves every pixel by
      (|f| + 1e-4) / ‖∇f‖_1 against the margin sign, scaled by
      (1 + overshoot); iteration stops at the first label flip. The label
      is ignored: the attack pushes away from the predicted class. The
      result is projected into the ball (the default budget of 1.0
      leaves it untouched beyond the [0, 1] clamp).
    - kryptonite: mifgsm whose factor after each step is
      decay_weight / max(progress, 1e-8), where progress is the Euclidean
      change of the RoI-masked image; res.mu and res.progress record both
      per step. The mask is `roi` or, when absent, the one extracted from
      the clean image (full-frame fallback if extraction fails); it stays
      fixed over the iterates.
    - kryptonite_masked: the same with the sign step zeroed outside the
      RoI, so pixels off the mask never change.

    With a fixed mask, a kryptonite step moves each RoI value by alpha or
    not at all, so progress = alpha * sqrt(number of RoI values the step
    moved). Whenever alpha * iterations <= epsilon the ball projection
    never binds, and that number is the count of RoI values not held at 0
    or 1 by the pixel-range clamp (nor left still by a zero momentum
    entry). If none is held, progress is alpha * sqrt(|RoI| * channels)
    at every step, mu is a per-image constant up to rounding (test it with
    np.ptp(res.mu) <= 1e-9 * res.mu.max(): progress sums round apart), and
    the attack equals mifgsm with initial_decay set to that mu (the first
    factor multiplies a zero accumulator, so it never matters).

    The result is row 0 of run_attacks': adversarial (H, W, C), mu and
    progress (iterations,), the other fields numpy scalars. Raises
    ZeroGradientError where a momentum or hyperplane-stepping attack meets
    a flat loss surface, rather than stepping nowhere.
    """
    res = run_attacks(kind, net, np.asarray(x)[None], [y], cfg, None if roi is None else roi[None])
    if res.zero[0]:
        raise ZeroGradientError("gradient is identically zero")
    return res[0]


def run_attacks(kind: str, net, xs: np.ndarray, ys, cfg: AttackConfig, rois: np.ndarray | None = None) -> AttackResult:
    """Attack every row of xs (N, H, W, C), N >= 1, labelled ys (N,),
    ATTACK_CHUNK rows at a time; `rois` (N, H, W) are the RoI-guided
    attacks' masks. The result holds one row per sample, in order.

    Row i is run_attack's result on (xs[i], ys[i], rois[i]), except that a
    row whose gradient vanishes cannot be moved: it keeps zero set and
    comes back unmoved (the clean image, linf 0, l2_percent 0.0, no
    iterations, no success, NaN mu and progress) as a miss for the
    attacker rather than aborting the batch. elapsed is the row's chunk's
    wall time over its rows.
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.shape[0] == 0:
        raise EmptyBatchError("attack on an empty batch")
    chunks = []
    for start in range(0, xs.shape[0], ATTACK_CHUNK):
        part = slice(start, start + ATTACK_CHUNK)
        t0 = time.perf_counter()
        chunk = _attack_batch(kind, net, xs[part], ys[part], cfg, None if rois is None else rois[part])
        chunk.elapsed[:] = (time.perf_counter() - t0) / chunk.zero.size
        chunks.append(chunk)
    first = vars(chunks[0])
    res = AttackResult(**{k: None if v is None else np.concatenate([vars(c)[k] for c in chunks]) for k, v in first.items()})
    flat = res.zero
    res.adversarial[flat] = xs[flat]
    res.linf[flat] = res.l2_percent[flat] = 0.0
    res.iterations_used[flat] = 0
    res.success[flat] = False
    for steps in (res.mu, res.progress):
        if steps is not None:
            steps[flat] = math.nan
    return res


def extract_roi_or_full(x: np.ndarray) -> np.ndarray:
    """Clean-image RoI mask (roi_mask's default 5x5 dilation); a
    single-intensity image, or one that binarizes to no contour, falls
    back to the full frame so the attack still runs."""
    try:
        return roi_mask(x)
    except (DegenerateImageError, NoContourError):
        return np.ones(x.shape[:2], dtype=bool)
