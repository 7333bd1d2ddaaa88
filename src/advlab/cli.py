"""Command-line harness.

Subcommands: synth, train, roi, attack, defend, sweep, report. Global
flags --config/--seed/--out; exit code 0 on success, nonzero with a
diagnostic on stderr for any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .attacks import run_attacks
from .bench.config import SWEEP_AXES, parse_config
from .bench.dataset import synth_dataset
from .bench.report import emit_report
from .bench.runner import (
    clean_rois,
    prepare_trial_data,
    run_experiment,
    sweep,
    sweep_to_csv,
    train_network,
)
from .errors import AdvlabError
from .gradnet import save_network
from .imagekit import read_image, roi_mask, square_kernel, write_mask


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, default=None, help="add N to the dataset and training seeds only")
    p.add_argument("--out", default="out", help="output directory or file")


def _load(args) -> "ExperimentConfig":
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.dataset.seed += args.seed
        cfg.train.seed += args.seed
    return cfg


def cmd_synth(args) -> int:
    out = Path(args.out)
    manifest = synth_dataset(out, n=args.n, size=args.size, seed=args.seed or 0)
    print(f"wrote {len(manifest.entries)} images under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    data = prepare_trial_data(cfg, 0)
    net = train_network(cfg, data, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / f"{cfg.name}.net"
    save_network(net, model_path)
    print(f"trained {net.parameter_count}-parameter network -> {model_path}")
    return 0


def cmd_roi(args) -> int:
    img = read_image(args.image)
    mask = roi_mask(img, square_kernel(args.kernel), invert=args.invert)
    out = Path(args.out)
    if out.suffix != ".pgm":
        out.mkdir(parents=True, exist_ok=True)
        out = out / (Path(args.image).stem + "_roi.pgm")
    write_mask(out, mask)
    print(f"roi mask ({int(mask.sum())} px) -> {out}")
    return 0


def cmd_attack(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise AdvlabError("--samples must be >= 1")
    cfg = _load(args)
    data = prepare_trial_data(cfg, 0)
    net = train_network(cfg, data, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    xs, ys = data.test_x[: args.samples], data.test_y[: args.samples]
    rois = clean_rois(cfg.attacks, xs)
    for name, (kind, acfg) in cfg.attacks.items():
        results = run_attacks(kind, net, xs, ys, acfg, rois=rois)
        for i, pred in enumerate(net.predict(results.adversarial)):
            res = results[i]
            records.append(
                {
                    "attack": name,
                    "sample": i,
                    "label": int(ys[i]),
                    "prediction": int(pred),
                    "linf": float(res.linf),
                    "l2_percent": float(res.l2_percent),
                    "iterations_used": int(res.iterations_used),
                    "success": bool(res.success),
                    "zero_gradient": bool(res.zero),
                    "elapsed_seconds": float(res.elapsed),
                }
            )
    path = out / "attack_records.json"
    path.write_text(json.dumps(records, indent=1))
    print(f"{len(records)} attack records -> {path}")
    return 0


def cmd_defend(args) -> int:
    cfg = _load(args)
    if not cfg.defences:
        raise AdvlabError("config declares no [defence.*] sections")
    rows = run_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = emit_report(rows, "csv", out / f"{cfg.name}_defences.csv")
    print(f"defence report -> {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.axis:
        if cfg.sweep is None:
            raise AdvlabError("config has no [sweep] section to override")
        cfg.sweep = dataclasses.replace(cfg.sweep, axis=args.axis)
    records = sweep(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.name}_sweep_{cfg.sweep.axis}.csv"
    sweep_to_csv(records, path)
    print(f"{len(records)} sweep points -> {path}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    rows = run_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = emit_report(rows, "csv", out / f"{cfg.name}.csv")
    json_path = emit_report(rows, "json", out / f"{cfg.name}.json")
    print(f"report -> {csv_path} and {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advlab", description="adversarial robustness desk bench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic blob dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train the configured network")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("roi", help="extract a region-of-interest mask")
    p.add_argument("--image", required=True, help="input PGM/PPM file")
    p.add_argument("--kernel", type=int, default=5, help="dilation kernel size")
    p.add_argument("--invert", action="store_true", help="select dark-on-light regions")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_roi)

    p = sub.add_parser("attack", help="run configured attacks, write JSON records")
    _add_common(p)
    p.add_argument("--samples", type=int, default=None, help="cap test samples")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("defend", help="evaluate configured defences")
    _add_common(p)
    p.set_defaults(fn=cmd_defend)

    p = sub.add_parser("sweep", help="hyperparameter sweep, CSV output")
    _add_common(p)
    p.add_argument("--axis", choices=list(SWEEP_AXES), default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="full experiment, CSV + JSON reports")
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AdvlabError, OSError, ValueError) as exc:
        print(f"advlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
