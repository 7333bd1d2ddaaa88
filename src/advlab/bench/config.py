"""Experiment configuration: a nested-section key-value text format.

One file describes one experiment: dataset, network, training, the attack
roster, optional defences, and an optional sweep axis. Sections
[attack.<name>] and [defence.<name>] append to the rosters; defence
sections reference attacks by name and inherit [train] unless they
override epochs/batch_size/learning_rate; each defence kind takes only
the options its code reads.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..attacks import ATTACK_NAMES, ROI_ATTACKS, AttackConfig
from ..defences import DEFENCE_KINDS, DefenceConfig
from ..errors import BadFormatError
from ..gradnet import ARCHITECTURES, TrainConfig


def check_split(train: int, test: int, what: str) -> None:
    """Raise ValueError when a split leaves its train or test side empty."""
    if train < 1 or test < 1:
        raise ValueError(f"{what} leaves the train or test split empty")


@dataclass
class DatasetSpec:
    n: int = 500
    size: int = 32
    seed: int = 100
    train_fraction: float = 0.8
    manifest: str | None = None

    def __post_init__(self):
        if not self.manifest:
            what = f"train_fraction {self.train_fraction} of n = {self.n}"
            check_split(self.train_size, self.n - self.train_size, what)

    @property
    def train_size(self) -> int:
        """Rows of a synthesized set that go to training; the rest test."""
        return int(round(self.train_fraction * self.n))


@dataclass
class NetworkSpec:
    arch: str = "blob_cnn"  # one of gradnet.ARCHITECTURES
    scale: float = 1.0  # width multiplier

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown arch {self.arch!r}; choose from {tuple(ARCHITECTURES)}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")


# The AttackConfig fields a sweep can vary, each mapped to the attack kinds
# it applies to; a sweep skips the other kinds.
SWEEP_AXES = {"epsilon": ATTACK_NAMES, "decay_weight": ROI_ATTACKS, "overshoot": ("deepfool",)}


@dataclass
class SweepSpec:
    axis: str = "epsilon"  # one of SWEEP_AXES
    values: tuple[float, ...] = ()
    attacks: tuple[str, ...] = ()
    samples: int = 100

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if len(self.values) == 0:
            raise ValueError("sweep values must be nonempty")
        if self.samples < 1:
            raise ValueError("sweep samples must be >= 1")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    trials: int = 1
    seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    attacks: dict = field(default_factory=dict)
    defences: dict = field(default_factory=dict)
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# Option value parsers by the annotation of the dataclass field the option
# fills, as source text (every config dataclass's module uses `from
# __future__ import annotations`); an optional field (`T | None`) is parsed as T.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str.strip,
    "bool": _bool,
    "tuple[float, ...]": lambda raw: tuple(float(tok) for tok in raw.replace(",", " ").split()),
    "tuple[str, ...]": lambda raw: tuple(tok.strip() for tok in raw.split(",") if tok.strip()),
}


# The options besides `kind` that each defence kind's code reads. `attack`
# names the attack adversarial training runs, and epochs/batch_size/
# learning_rate override [train] for the kinds that train.
_TRAIN_OVERRIDES = ("epochs", "batch_size", "learning_rate")
_DEFENCE_OPTIONS = {
    "adv_train": {"attack", "adversarial_fraction", "regenerate", "seed", *_TRAIN_OVERRIDES},
    "pixel_deflect": {"deflections", "window", "denoise", "seed"},
    "distill": {"temperature", *_TRAIN_OVERRIDES},
}


def _fill_dataclass(cls, options: dict, context: str, base=None, allowed=None):
    """Build cls (or replace fields of base) from a section's raw options;
    an unknown option, a bad value or a rejected combination raises
    BadFormatError naming the section."""
    types = {f.name: f.type.removesuffix(" | None") for f in fields(cls)}
    unknown = sorted(options.keys() - (allowed or types.keys()))
    if unknown:
        raise BadFormatError(f"{context}: unknown options {unknown}")
    kwargs = {}
    for key, raw in options.items():
        try:
            kwargs[key] = _PARSERS[types[key]](raw)
        except ValueError as exc:
            raise BadFormatError(f"{context}.{key}: {exc}") from exc
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ValueError as exc:
        raise BadFormatError(f"{context}: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse an experiment file; raises BadFormatError with context."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise BadFormatError(f"cannot read config {path}")

    head = dict(parser.items("experiment")) if parser.has_section("experiment") else {}
    cfg = _fill_dataclass(ExperimentConfig, head, "[experiment]", allowed={"name", "trials", "seed"})
    if parser.has_section("dataset"):
        cfg.dataset = _fill_dataclass(DatasetSpec, dict(parser.items("dataset")), "[dataset]")
    if parser.has_section("network"):
        cfg.network = _fill_dataclass(NetworkSpec, dict(parser.items("network")), "[network]")
    if parser.has_section("train"):
        cfg.train = _fill_dataclass(TrainConfig, dict(parser.items("train")), "[train]")

    # Attacks first, so that adversarial training resolves its attack
    # against the whole roster; each roster keeps its file order.
    for section in parser.sections():
        if section.startswith("attack."):
            name = section.split(".", 1)[1]
            opts = dict(parser.items(section))
            kind = opts.pop("kind", name)
            if kind not in ATTACK_NAMES:
                raise BadFormatError(f"[{section}]: unknown attack kind {kind!r}")
            cfg.attacks[name] = (kind, _fill_dataclass(AttackConfig, opts, f"[{section}]"))
    for section in parser.sections():
        if section.startswith("defence."):
            name = section.split(".", 1)[1]
            opts = dict(parser.items(section))
            kind = opts.pop("kind", name)
            if kind not in DEFENCE_KINDS:
                raise BadFormatError(f"[{section}]: unknown defence kind {kind!r}; choose from {DEFENCE_KINDS}")
            unknown = sorted(opts.keys() - _DEFENCE_OPTIONS[kind])
            if unknown:
                raise BadFormatError(f"[{section}]: unknown options {unknown} for kind {kind!r}")
            attack = opts.pop("attack", DefenceConfig.attack_name)
            train_over = {k: opts.pop(k) for k in _TRAIN_OVERRIDES if k in opts}
            dcfg = _fill_dataclass(DefenceConfig, {"kind": kind, **opts}, f"[{section}]")
            dcfg.train = _fill_dataclass(
                TrainConfig, train_over, f"[{section}] train overrides", base=cfg.train
            )
            if kind == "adv_train":
                if attack in cfg.attacks:
                    dcfg.attack_name, dcfg.attack = cfg.attacks[attack]
                elif attack in ATTACK_NAMES:
                    dcfg.attack_name = attack
                else:
                    raise BadFormatError(f"[{section}]: attack {attack!r} is neither a configured attack nor a known kind")
            cfg.defences[name] = dcfg
    if parser.has_section("sweep"):
        cfg.sweep = _fill_dataclass(SweepSpec, dict(parser.items("sweep")), "[sweep]")
        for name in cfg.sweep.attacks:
            if name not in cfg.attacks:
                raise BadFormatError(f"[sweep]: attack {name!r} is not a configured attack")
    return cfg
