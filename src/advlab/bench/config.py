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

from ..attacks import ATTACK_NAMES, AttackConfig
from ..defences import DEFENCE_KINDS, DefenceConfig
from ..errors import BadFormatError
from ..gradnet import TrainConfig


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


ARCHITECTURES = ("blob_cnn", "reference")  # the names runner.network_specs builds


@dataclass
class NetworkSpec:
    arch: str = "blob_cnn"  # one of ARCHITECTURES
    scale: float = 1.0  # width multiplier

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown arch {self.arch!r}; choose from {ARCHITECTURES}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")


SWEEP_AXES = ("epsilon", "decay_weight", "overshoot")  # AttackConfig fields a sweep can vary


@dataclass
class SweepSpec:
    axis: str = "epsilon"  # one of SWEEP_AXES
    values: tuple = ()
    attacks: tuple = ()
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


def _values_tuple(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names_tuple(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# Option names are unique across sections, so one type table covers all.
_FIELD_TYPES = {
    "name": str, "trials": int,
    "n": int, "size": int, "seed": int, "train_fraction": float, "manifest": str,
    "arch": str, "scale": float,
    "epochs": int, "batch_size": int, "learning_rate": float,
    "stop_accuracy": float,
    "epsilon": float, "iterations": int, "alpha": float, "decay_weight": float,
    "initial_decay": float, "overshoot": float,
    "kind": str, "adversarial_fraction": float,
    "regenerate": str, "deflections": int, "window": int, "denoise": bool,
    "temperature": float,
    "axis": str, "values": _values_tuple, "attacks": _names_tuple, "samples": int,
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


def _coerce(raw: str, target_type):
    if target_type is bool:
        low = raw.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if target_type is str:
        return raw.strip()
    return target_type(raw)


def _fill_dataclass(cls, options: dict, context: str, base=None, allowed=None):
    """Build cls (or replace fields of base) from a section's raw options;
    an unknown option, a bad value or a rejected combination raises
    BadFormatError naming the section."""
    unknown = sorted(options.keys() - (allowed or {f.name for f in fields(cls)}))
    if unknown:
        raise BadFormatError(f"{context}: unknown options {unknown}")
    kwargs = {}
    for key, raw in options.items():
        try:
            kwargs[key] = _coerce(raw, _FIELD_TYPES.get(key, str))
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

    for section in parser.sections():
        if section.startswith("attack."):
            name = section.split(".", 1)[1]
            opts = dict(parser.items(section))
            kind = opts.pop("kind", name)
            if kind not in ATTACK_NAMES:
                raise BadFormatError(f"[{section}]: unknown attack kind {kind!r}")
            acfg = _fill_dataclass(AttackConfig, opts, f"[{section}]")
            cfg.attacks[name] = (kind, acfg)
        elif section.startswith("defence."):
            name = section.split(".", 1)[1]
            opts = dict(parser.items(section))
            kind = opts.pop("kind", name)
            if kind not in DEFENCE_KINDS:
                raise BadFormatError(f"[{section}]: unknown defence kind {kind!r}; choose from {DEFENCE_KINDS}")
            unknown = sorted(opts.keys() - _DEFENCE_OPTIONS[kind])
            if unknown:
                raise BadFormatError(f"[{section}]: unknown options {unknown} for kind {kind!r}")
            attack_ref = opts.pop("attack", None)
            train_over = {k: opts.pop(k) for k in _TRAIN_OVERRIDES if k in opts}
            dcfg = _fill_dataclass(DefenceConfig, {"kind": kind, **opts}, f"[{section}]")
            dcfg.train = _fill_dataclass(
                TrainConfig, train_over, f"[{section}] train overrides", base=cfg.train
            )
            if attack_ref is not None:
                dcfg.attack_name = attack_ref
            cfg.defences[name] = dcfg
    if parser.has_section("sweep"):
        cfg.sweep = _fill_dataclass(SweepSpec, dict(parser.items("sweep")), "[sweep]")

    # Sweep and defence attack references must resolve against the roster.
    if cfg.sweep is not None:
        for name in cfg.sweep.attacks:
            if name not in cfg.attacks:
                raise BadFormatError(f"[sweep]: attack {name!r} is not a configured attack")
    for name, dcfg in cfg.defences.items():
        if dcfg.kind == "adv_train":
            if dcfg.attack_name in cfg.attacks:
                kind, acfg = cfg.attacks[dcfg.attack_name]
                dcfg.attack_name = kind
                dcfg.attack = acfg
            elif dcfg.attack_name not in ATTACK_NAMES:
                raise BadFormatError(
                    f"[defence.{name}]: attack {dcfg.attack_name!r} is neither a "
                    "configured attack nor a known kind"
                )
    return cfg
