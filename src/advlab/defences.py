"""Defences: adversarial training, pixel deflection, defensive distillation.

Pixel deflection replaces low-saliency pixels with random neighbours and
median-denoises the result; the saliency map is the normalized magnitude
of the input gradient. Distillation trains a teacher at temperature T on
hard labels, a same-architecture student on the teacher's soft labels at
T, and evaluates the student at T = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackConfig, run_attacks
from .errors import NonPositiveTemperatureError
from .gradnet import TrainConfig, build, promote_to_softmax, train
from .gradnet.network import Network
from .imagekit import validate_image


DEFENCE_KINDS = ("adv_train", "pixel_deflect", "distill")


@dataclass
class DefenceConfig:
    kind: str = "adv_train"
    adversarial_fraction: float = 0.65
    attack_name: str = "fgsm"
    attack: AttackConfig = field(default_factory=lambda: AttackConfig(epsilon=0.1))
    regenerate: str = "per_epoch"  # or "once"
    deflections: int = 120
    window: int = 3
    denoise: bool = True
    temperature: float = 20.0
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.kind not in DEFENCE_KINDS:
            raise ValueError(f"unknown defence kind {self.kind!r}; choose from {DEFENCE_KINDS}")
        if not 0.0 <= self.adversarial_fraction <= 1.0:
            raise ValueError("adversarial fraction must lie in [0, 1]")
        if self.deflections < 0:
            raise ValueError("deflections must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise NonPositiveTemperatureError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.regenerate not in ("per_epoch", "once"):
            raise ValueError("regenerate must be 'per_epoch' or 'once'")


def adversarial_train(
    net: Network, dataset: tuple[np.ndarray, np.ndarray], cfg: DefenceConfig
) -> tuple[Network, dict]:
    """Retrain from scratch on a clean/adversarial mix; returns (net, history).

    A fixed subset (cfg.adversarial_fraction of the training set) is
    replaced by adversarial versions: before the first epoch they are
    generated against the incoming network, and with the per-epoch
    schedule they are regenerated against the evolving network at each
    later epoch, all in one batched attack call. A sample whose gradient
    vanishes stays clean. Training runs every epoch through train(), so
    with fraction 0 the run is plain training under the same seed, and
    history records the per-epoch mean batch loss and accuracy on the mix.
    """
    xs, ys = dataset
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys)
    n = xs.shape[0]
    fresh = build(net.specs, net.input_shape, seed=cfg.train.seed)

    sel_rng = np.random.default_rng(cfg.seed)
    k = round(cfg.adversarial_fraction * n)
    chosen = np.sort(sel_rng.choice(n, size=k, replace=False)) if k else np.array([], dtype=int)
    mixed = xs.copy()

    def inputs(epoch):
        if k and (epoch == 0 or cfg.regenerate == "per_epoch"):
            source = net if epoch == 0 else fresh
            mixed[chosen] = run_attacks(cfg.attack_name, source, xs[chosen], ys[chosen], cfg.attack).adversarial
        return mixed

    return train(fresh, (xs, ys), replace(cfg.train, stop_accuracy=None), inputs=inputs)


def gradient_saliency(net: Network, x: np.ndarray) -> np.ndarray:
    """|input gradient| of one image at its predicted label, collapsed
    over channels and scaled to [0, 1]; a defence sees no true labels."""
    g = np.abs(net.input_gradient(x[None], net.predict(x[None]))[0]).sum(axis=2)
    peak = g.max()
    return g / peak if peak > 0 else g


def median_filter3(img: np.ndarray) -> np.ndarray:
    """3x3 per-channel median with edge-replicated borders."""
    h, w, _ = img.shape
    padded = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
    windows = np.stack(
        [padded[1 + di : h + 1 + di, 1 + dj : w + 1 + dj, :] for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    )
    return np.median(windows, axis=0)


def pixel_deflect(x: np.ndarray, saliency: np.ndarray, cfg: DefenceConfig) -> np.ndarray:
    """Swap low-saliency pixels with random window neighbours, then denoise.

    Targets are drawn with probability proportional to (1 - saliency),
    an (H, W) map; each target copies the value of a pixel chosen
    uniformly in its (2*window+1)^2 neighbourhood (offsets clamped at the
    borders). With deflections = 0 and denoise off this is the identity.
    """
    validate_image(x)
    if saliency.shape != x.shape[:2]:
        raise ValueError("saliency must match the image grid")
    h, w, _ = x.shape
    out = x.copy()
    if cfg.deflections > 0:
        rng = np.random.default_rng(cfg.seed)
        weights = (1.0 - saliency).ravel() + 1e-3
        p = weights / weights.sum()
        targets = rng.choice(h * w, size=cfg.deflections, p=p)
        offsets = rng.integers(-cfg.window, cfg.window + 1, size=(cfg.deflections, 2))
        for t, (dr, dc) in zip(targets, offsets):
            r, c = divmod(int(t), w)
            sr = min(max(r + int(dr), 0), h - 1)
            sc = min(max(c + int(dc), 0), w - 1)
            out[r, c, :] = out[sr, sc, :]
    if cfg.denoise:
        out = median_filter3(out)
    return np.clip(out, 0.0, 1.0)


def distill(
    specs,
    input_shape: tuple,
    dataset: tuple[np.ndarray, np.ndarray],
    cfg: DefenceConfig,
) -> tuple[Network, Network]:
    """Defensive distillation; returns (student, teacher).

    Both networks share the architecture (a sigmoid head is promoted to a
    2-logit softmax). The teacher trains on hard labels at temperature T;
    the student trains on the teacher's temperature-T soft labels; the
    student is returned with its head reset to temperature 1.
    """
    xs, ys = dataset
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys)
    soft_specs = promote_to_softmax(list(specs), temperature=cfg.temperature)
    train_cfg = replace(cfg.train, stop_accuracy=None)
    teacher = build(soft_specs, input_shape, seed=cfg.train.seed)
    train(teacher, (xs, ys.astype(int)), train_cfg)
    soft_labels = teacher.forward(xs)
    student = build(soft_specs, input_shape, seed=cfg.train.seed + 1)
    train(student, (xs, soft_labels), train_cfg)
    student.set_temperature(1.0)
    return student, teacher
