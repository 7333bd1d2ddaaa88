"""Experiment orchestration: train, attack, defend, sweep, aggregate.

Every number an experiment emits is a function of (config, seed): trial t
offsets the dataset, initialization, training and attack seeds by t, and
all reductions run in fixed order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..attacks import ROI_ATTACKS, AttackResult, extract_roi_or_full, run_attack, run_attacks
from ..errors import BadFormatError, ZeroGradientError
from ..defences import adversarial_train, distill, gradient_saliency, pixel_deflect
from ..gradnet import ARCHITECTURES, build, train
from ..metrics import accuracy, roc_auc
from .config import SWEEP_AXES, ExperimentConfig, SweepSpec, check_split
from .dataset import load_dataset
from .report import COLUMNS, ReportRow
from .synth import generate_images


def network_specs(arch: str, input_hw: int, scale: float = 1.0):
    """(specs, input shape) of a named architecture of gradnet.ARCHITECTURES."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    return ARCHITECTURES[arch](input_hw=input_hw, scale=scale)


@dataclass
class TrialData:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def prepare_trial_data(cfg: ExperimentConfig, trial: int) -> TrialData:
    ds = cfg.dataset
    if ds.manifest:
        loaded = load_dataset(ds.manifest)
        tr = loaded.split_indices["train"]
        te = loaded.split_indices["test"]
        check_split(len(tr), len(te), f"manifest {ds.manifest} split of n = {len(loaded.labels)}")
        return TrialData(loaded.images[tr], loaded.labels[tr], loaded.images[te], loaded.labels[te])
    images, labels, _ = generate_images(ds.n, ds.size, seed=ds.seed + trial)
    k = ds.train_size
    return TrialData(images[:k], labels[:k], images[k:], labels[k:])


def train_network(cfg: ExperimentConfig, data: TrialData, trial: int):
    specs, shape = network_specs(cfg.network.arch, data.train_x.shape[1], cfg.network.scale)
    tcfg = replace(cfg.train, seed=cfg.train.seed + trial)
    net = build(specs, shape, seed=tcfg.seed)
    train(net, (data.train_x, data.train_y), tcfg)
    return net


def clean_rois(roster: dict, xs) -> np.ndarray | None:
    """The clean-image RoI masks (N, H, W) of xs, extracted once for every
    RoI-guided attack of `roster` (name -> (kind, AttackConfig)) to
    share; None when it holds none."""
    if not any(kind in ROI_ATTACKS for kind, _ in roster.values()):
        return None
    return np.stack([extract_roi_or_full(x) for x in xs])


def _attack_stats(target, res: AttackResult, ys) -> dict:
    """Score the adversarials of one batched attack on `target`. The keys
    are ReportRow fields."""
    acc, auc = _clean_stats(target, res.adversarial, ys)
    kept = res.l2_percent[~np.isnan(res.l2_percent)]
    return {
        "accuracy_under_attack": acc,
        "roc_auc": auc,
        "pert_mean_percent": float(np.mean(kept)) if kept.size else math.nan,
        "pert_worst_percent": float(np.max(kept)) if kept.size else math.nan,
        "seconds_per_sample": float(np.mean(res.elapsed)),
    }


def _clean_stats(model, xs, ys) -> tuple[float, float]:
    preds, scores = model.predict_and_score(xs)
    return accuracy(preds, ys), roc_auc(scores, ys)


class Deflected:
    """The net behind pixel deflection: each image is deflected with the
    net's own saliency map, then the net scores the batch. It lives here
    so that pixel_deflect and gradient_saliency resolve through this
    module's globals, where perfbench wraps them."""

    def __init__(self, net, cfg):
        self.net, self.cfg = net, cfg

    def predict_and_score(self, xs):
        deflected = [pixel_deflect(x, gradient_saliency(self.net, x), self.cfg) for x in xs]
        return self.net.predict_and_score(np.stack(deflected))


def _attacked_models(cfg: ExperimentConfig, data: TrialData, net, trial: int):
    """(defence name, source, target) of each model a trial attacks: the
    attack reads gradients from the source and the target scores. The
    undefended net comes first, named None, then every defence, built
    only when reached."""
    yield None, net, net
    for dname, dcfg in cfg.defences.items():
        dcfg = replace(dcfg, seed=dcfg.seed + trial, train=replace(dcfg.train, seed=dcfg.train.seed + trial))
        if dcfg.kind == "adv_train":
            source = target = adversarial_train(net, (data.train_x, data.train_y), dcfg)[0]
        elif dcfg.kind == "distill":
            specs, shape = network_specs(cfg.network.arch, data.train_x.shape[1], cfg.network.scale)
            source = target = distill(specs, shape, (data.train_x, data.train_y), dcfg)[0]
        else:  # pixel_deflect: a transfer row, attacking the undefended net
            source, target = net, Deflected(net, dcfg)
        yield dname, source, target


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Full protocol: per trial, train, then run every attack against the
    undefended model and against every defence; append mean rows
    (trial = -1)."""
    rows: list[ReportRow] = []
    net_id = f"{cfg.network.arch}x{cfg.network.scale:g}"
    for trial in range(cfg.trials):
        data = prepare_trial_data(cfg, trial)
        xs, ys = data.test_x, data.test_y
        net = train_network(cfg, data, trial)
        rois = clean_rois(cfg.attacks, xs)
        # Each attack runs once on the undefended net; every model whose source
        # is that net scores the run. Runs are kept only when defences follow:
        # keeping all six raised a defence-free 150-image run's peak memory 12%.
        bare = {}
        for dname, source, target in _attacked_models(cfg, data, net, trial):
            clean_acc, clean_auc = _clean_stats(target, xs, ys)
            if dname is None:
                rows.append(ReportRow(row="clean", network=net_id, trial=trial, clean_accuracy=clean_acc, roc_auc=clean_auc))
            for aname, (kind, acfg) in cfg.attacks.items():
                res = bare.get(aname) if source is net else None
                if res is None:
                    res = run_attacks(kind, source, xs, ys, replace(acfg, seed=acfg.seed + trial), rois=rois)
                    if source is net and cfg.defences:
                        bare[aname] = res
                stats = _attack_stats(target, res, ys)
                if dname is not None:  # defence rows report accuracy and AUC only
                    stats = {k: stats[k] for k in ("accuracy_under_attack", "roc_auc")}
                rows.append(
                    ReportRow(
                        row="attack" if dname is None else "defence",
                        network=net_id,
                        attack=aname,
                        defence=dname,
                        trial=trial,
                        clean_accuracy=clean_acc,
                        **stats,
                    )
                )
    rows.extend(mean_rows(rows))
    return rows


def mean_rows(rows: list[ReportRow]) -> list[ReportRow]:
    """One trial = -1 row per (row, attack, defence, network) group."""
    groups: dict[tuple, list[ReportRow]] = {}
    for r in rows:
        if r.trial < 0:
            continue
        groups.setdefault((r.row, r.attack, r.defence, r.network), []).append(r)
    out = []
    for (row, attack, defence, network), members in groups.items():
        agg = ReportRow(row=row, network=network, attack=attack, defence=defence, trial=-1)
        for name in COLUMNS[5:]:
            vals = [getattr(m, name) for m in members if not math.isnan(getattr(m, name))]
            if vals:
                setattr(agg, name, float(np.mean(vals)))
        out.append(agg)
    return out


def sweep(cfg: ExperimentConfig, spec: SweepSpec | None = None) -> list[dict]:
    """One (attack, value, ROC-AUC) record per grid point.

    Each axis varies the attacks of the kinds SWEEP_AXES gives it: epsilon
    every kind, decay_weight the RoI-guided ones and overshoot the
    hyperplane-stepping one; the others are skipped. An attack name the
    config lacks, a roster the axis skips entirely and every grid point's
    AttackConfig are checked before any data or training.
    """
    spec = spec or cfg.sweep
    if spec is None:
        raise ValueError("no sweep requested")
    for name in spec.attacks:
        if name not in cfg.attacks:
            raise BadFormatError(f"[sweep]: attack {name!r} is not a configured attack")
    wanted = SWEEP_AXES[spec.axis]
    roster = {name: cfg.attacks[name] for name in spec.attacks or cfg.attacks if cfg.attacks[name][0] in wanted}
    if not roster:
        raise BadFormatError(f"[sweep]: the {spec.axis} axis varies only {', '.join(wanted)}, and no attack to sweep is one")
    grid = []
    for name, (kind, acfg) in roster.items():
        for value in map(float, spec.values):
            try:
                grid.append((name, kind, value, replace(acfg, **{spec.axis: value})))
            except ValueError as exc:
                raise BadFormatError(f"[sweep]: {exc}") from exc
    data = prepare_trial_data(cfg, 0)
    net = train_network(cfg, data, 0)
    take = min(spec.samples, data.test_x.shape[0])
    xs, ys = data.test_x[:take], data.test_y[:take]
    rois = clean_rois(roster, xs)
    records = []
    for name, kind, value, acfg in grid:
        stats = _attack_stats(net, run_attacks(kind, net, xs, ys, acfg, rois=rois), ys)
        records.append({"attack": name, "axis": spec.axis, "value": value, "roc_auc": stats["roc_auc"]})
    return records


def sweep_to_csv(records: list[dict], out_path) -> None:
    import csv
    from pathlib import Path

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["attack", "axis", "value", "roc_auc"])
        writer.writeheader()
        writer.writerows(records)


def time_attacks(cfg: ExperimentConfig, samples: int = 50) -> dict[str, float]:
    """Mean wall-clock seconds per adversarial sample, attack call only.

    This times single-sample latency, so each attack runs per sample
    through run_attack, not in the chunks run_experiment uses: a batched
    call would divide one chunk's time among its rows and measure
    throughput instead.

    RoI masks are an input of the RoI-guided attacks, so they are
    extracted once (clean_rois) before the clock starts, as
    run_experiment extracts them once per trial.

    The attacks take turns on each sample instead of each running as one
    block, so a change in the host's speed during the run lands on every
    attack alike rather than on whichever block it overlaps.
    """
    data = prepare_trial_data(cfg, 0)
    net = train_network(cfg, data, 0)
    xs, ys = data.test_x[:samples], data.test_y[:samples]
    rois = clean_rois(cfg.attacks, xs)
    totals = dict.fromkeys(cfg.attacks, 0.0)
    for i in range(xs.shape[0]):
        for name, (kind, acfg) in cfg.attacks.items():
            roi = rois[i] if kind in ROI_ATTACKS else None
            t0 = time.perf_counter()
            try:
                run_attack(kind, net, xs[i], int(ys[i]), acfg, roi=roi)
            except ZeroGradientError:
                pass
            totals[name] += time.perf_counter() - t0
    return {name: total / xs.shape[0] for name, total in totals.items()}
