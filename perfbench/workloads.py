"""The four benchmark workloads: inputs, one timed pass, output checks.

Each workload is a closed loop in one process: one pass after another.
The experiment workloads (`train`, `attack`, `defend`) run
`advlab.bench.runner.run_experiment` on a config under perfbench/configs
and write the report the way `advlab report` does; `roi` runs the
per-image extraction that `advlab roi` runs.

Seeds. The workload seed offsets every seed that draws an input of the
measured work: the attack seeds, the pixel-deflection draws and, for
`roi`, the synthetic dataset. The seeds that decide an SGD trajectory
(dataset and initialisation of the undefended model, the adversarial
subset and the initialisation of the defended models) stay at the config
values: the work of an attack depends on the model it attacks, and at
defences.ini's shape plain SGD is erratic for its first epochs (6 of 16
dataset/initialisation seeds tried are below 0.9 test accuracy after 14
epochs, none after 22), so a seed-dependent model would make the work
per pass, and the clean-accuracy check, depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import advlab.attacks as attacks
import advlab.bench as bench
import advlab.bench.runner as runner
import advlab.imagekit as imagekit
from advlab.errors import AdvlabError, ZeroGradientError

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
MIN_CLEAN_ACCURACY = 0.9
INVARIANT_SAMPLES = 8  # test images re-attacked per attack kind for the ball check
ROI_IMAGES = 1000
ROI_SEED = 500
ROI_KERNEL = 5  # extract_roi_or_full's default kernel size


@dataclass
class PassResult:
    wall: float = 0.0
    complete: bool = True  # the pass produced its output
    ops: int = 0  # top-level calls made
    failures: list[str] = field(default_factory=list)  # top-level calls that raised
    checks: int = 0
    violations: list[str] = field(default_factory=list)  # output checks that failed
    fidelity: dict = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)


def check(result: PassResult, ok: bool, message: str) -> None:
    result.checks += 1
    if not ok:
        result.violations.append(message)


# --- experiment workloads ----------------------------------------------------


def load_config(name: str, seed: int, tiny: bool = False):
    """The workload's experiment config with the workload seed applied."""
    cfg = bench.parse_config(CONFIG_DIR / f"{name}.ini")
    cfg.seed = seed
    cfg.attacks = {a: (kind, replace(acfg, seed=acfg.seed + seed)) for a, (kind, acfg) in cfg.attacks.items()}
    for dcfg in cfg.defences.values():
        if dcfg.kind == "pixel_deflect":
            dcfg.seed += seed
    if tiny:
        cfg.dataset.n = 40
        cfg.train = replace(cfg.train, epochs=1)
        for dcfg in cfg.defences.values():
            dcfg.train = replace(dcfg.train, epochs=1)
    return cfg


class Experiment:
    """`train`, `attack` or `defend`: run_experiment plus the report."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool = False):
        self.cfg = load_config(name, seed, tiny)
        self.workdir = workdir
        self.min_clean_accuracy = 0.0 if tiny else MIN_CLEAN_ACCURACY  # one tiny epoch cannot train
        self.net = None
        ds = self.cfg.dataset
        self.n_train = int(round(ds.train_fraction * ds.n))
        self.n_test = ds.n - self.n_train

    def items(self) -> int:
        """Sample-epochs (`train`) or attacked (model, attack, image) triples."""
        if not self.cfg.attacks:
            return self.n_train * self.cfg.train.epochs
        return (1 + len(self.cfg.defences)) * len(self.cfg.attacks) * self.n_test

    def run_pass(self, tracer, clock) -> PassResult:
        # Keep the trained model for the invariant check, where the runner
        # still looks train_network up; otherwise final_checks retrains.
        train_network = getattr(runner, "train_network", None)

        def keep_network(*args, **kwargs):
            self.net = train_network(*args, **kwargs)
            return self.net

        if train_network is not None:
            runner.train_network = keep_network
        t0 = clock()
        try:
            with tracer.span("bench.pass"):
                with tracer.span("bench.run_experiment"):
                    rows = runner.run_experiment(self.cfg)
                with tracer.span("bench.report"):
                    bench.emit_report(rows, "csv", self.workdir / f"{self.cfg.name}.csv")
                    path = bench.emit_report(rows, "json", self.workdir / f"{self.cfg.name}.json")
        except AdvlabError as exc:
            return PassResult(clock() - t0, False, 1, [f"run_experiment raised {exc!r}"])
        finally:
            if train_network is not None:
                runner.train_network = train_network
        result = PassResult(clock() - t0, ops=1)
        self._check_rows(result, bench.load_report_json(path))
        return result

    def _check_rows(self, result: PassResult, rows) -> None:
        cfg = self.cfg
        groups = {("clean", None, None)}
        groups |= {("attack", a, None) for a in cfg.attacks}
        groups |= {("defence", a, d) for d in cfg.defences for a in cfg.attacks}
        expected = {g + (t,) for g in groups for t in (0, -1)}
        got = [(r.row, r.attack, r.defence, r.trial) for r in rows]
        check(result, sorted(got, key=str) == sorted(expected, key=str), f"report rows {sorted(got, key=str)}")
        nan = [
            r
            for r in rows
            if math.isnan(r.clean_accuracy) or (r.row != "clean" and math.isnan(r.accuracy_under_attack))
        ]
        check(result, not nan, f"{len(nan)} report rows with NaN accuracy")
        trial = [r for r in rows if r.trial == 0]
        clean = [r.clean_accuracy for r in trial if r.row == "clean"]
        if clean:
            result.fidelity["clean_accuracy"] = clean[0]
        check(
            result,
            bool(clean) and clean[0] >= self.min_clean_accuracy,
            f"undefended clean_accuracy {clean} < {self.min_clean_accuracy}",
        )
        under = [r.accuracy_under_attack for r in trial if r.row == "attack"]
        if under:
            result.fidelity["attack_success_rate"] = float(np.mean([1.0 - a for a in under]))
        defended = {}
        for r in trial:
            if r.row == "defence":
                defended[r.defence] = r.clean_accuracy
                result.fidelity[f"defences.{cfg.defences[r.defence].kind}.clean_accuracy"] = r.clean_accuracy
        if defended:
            result.fidelity["defended_clean_accuracy"] = float(np.mean(list(defended.values())))

    def final_checks(self) -> PassResult:
        """Re-attack a fixed subsample through the public run_attack and
        check the epsilon-ball and [0, 1] invariant of every adversarial."""
        result = PassResult()
        if not self.cfg.attacks:
            return result
        data = runner.prepare_trial_data(self.cfg, 0)
        net = self.net or runner.train_network(self.cfg, data, 0)
        for name, (kind, acfg) in self.cfg.attacks.items():
            for i in range(min(INVARIANT_SAMPLES, data.test_x.shape[0])):
                x = data.test_x[i]
                result.ops += 1
                try:
                    adv = attacks.run_attack(kind, net, x, int(data.test_y[i]), acfg).adversarial
                except ZeroGradientError:
                    continue  # a flat loss surface leaves the image unmoved
                except AdvlabError as exc:
                    result.failures.append(f"{name} on test image {i} raised {exc!r}")
                    continue
                adv = np.asarray(adv, dtype=float)
                inside = (
                    adv.shape == x.shape
                    and bool(np.isfinite(adv).all())
                    and float(np.abs(adv - x).max()) <= acfg.epsilon + 1e-12
                    and float(adv.min()) >= 0.0
                    and float(adv.max()) <= 1.0
                )
                check(result, inside, f"{name} on test image {i} leaves the epsilon-ball or [0, 1]")
        return result


# --- roi workload ------------------------------------------------------------


def roi_images(tiny: bool) -> int:
    return 24 if tiny else ROI_IMAGES


class Roi:
    """`roi`: load the manifest, one roi_mask per image, IoU vs. truth."""

    def __init__(self, workdir: Path, tiny: bool = False):
        self.n_images = roi_images(tiny)
        self.manifest = workdir / "roi" / "manifest.json"

    def run_pass(self, tracer, clock) -> PassResult:
        kernel = imagekit.square_kernel(ROI_KERNEL)
        masks, latencies, failures = [], [], []
        t0 = clock()
        with tracer.span("bench.pass"):
            with tracer.span("bench.dataset.load"):
                data = bench.load_dataset(self.manifest)
            for i, img in enumerate(data.images):
                t1 = clock()
                try:
                    with tracer.span("imagekit.roi_mask"):
                        mask = imagekit.roi_mask(img, kernel)
                except AdvlabError as exc:
                    failures.append(f"roi_mask on image {i} raised {exc!r}")
                    mask = np.ones(img.shape[:2], dtype=bool)  # extract_roi_or_full's fallback
                latencies.append((clock() - t1) * 1e3)
                masks.append(mask)
        wall = clock() - t0
        result = PassResult(wall, ops=len(masks), failures=failures, latencies_ms=latencies)
        truth = data.rois
        inter = np.array([(m & t).sum() for m, t in zip(masks, truth)], dtype=float)
        union = np.array([(m | t).sum() for m, t in zip(masks, truth)], dtype=float)
        iou = inter / np.where(union > 0, union, np.nan)
        check(result, all(int(m.sum()) > 0 for m in masks), "empty RoI mask")
        check(result, bool(np.isfinite(iou).all()), "non-finite RoI IoU")
        check(result, len(masks) == self.n_images, f"{len(masks)} masks for {self.n_images} images")
        result.fidelity["roi_iou"] = float(np.nanmean(iou))
        return result

    def items(self) -> int:
        return self.n_images

    def final_checks(self) -> PassResult:
        return PassResult()


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    if name == "roi":
        return Roi(workdir, tiny)
    return Experiment(name, seed, workdir, tiny)


def prepare(name: str, seed: int, workdir: str, tiny: bool = False) -> None:
    """Set-up: make the workload's inputs (parse its config, or write the
    `roi` dataset). Run in a fresh interpreter to time set-up."""
    if name == "roi":
        bench.synth_dataset(Path(workdir) / "roi", n=roi_images(tiny), size=32, seed=ROI_SEED + seed)
    else:
        load_config(name, seed, tiny)
