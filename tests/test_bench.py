"""Harness pieces: generator, manifests, configs, reports, small runs."""

import json
import math
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

import numpy as np
import pytest

from advlab.bench import (
    ExperimentConfig,
    ReportRow,
    emit_report,
    generate_images,
    load_dataset,
    load_report_json,
    parse_config,
    prepare_trial_data,
    synth_dataset,
)
from advlab.attacks import AttackConfig
from advlab.bench.config import DatasetSpec, SweepSpec
from advlab.bench.runner import mean_rows
from advlab.bench.synth import _clear_of, _ellipse_mask
from advlab.defences import DefenceConfig
from advlab.errors import BadFormatError, BadLabelError, IoError, MissingFileError
from advlab.gradnet import TrainConfig
from advlab.imagekit import dilate, roi_mask, square_kernel


class TestGenerator:
    def test_balanced_classes(self):
        _, ys, _ = generate_images(100, 32, seed=7)
        assert abs(int(ys.sum()) - 50) <= 1

    def test_deterministic(self):
        a = generate_images(20, 32, seed=3)
        b = generate_images(20, 32, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_value_range_and_shapes(self):
        xs, ys, rois = generate_images(10, 40, seed=1)
        assert xs.shape == (10, 40, 40, 1)
        assert rois.shape == (10, 40, 40)
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_roi_extraction_overlaps_ground_truth(self):
        xs, _, rois = generate_images(30, 32, seed=5)
        for i in range(30):
            mask = roi_mask(xs[i], square_kernel(5))
            iou = (mask & rois[i]).sum() / (mask | rois[i]).sum()
            assert iou > 0.5

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            generate_images(2, 32)
        with pytest.raises(ValueError):
            generate_images(10, 16)


class TestClearance:
    @pytest.mark.parametrize("size", [32, 48])
    def test_window_lookup_equals_dilated_mask(self, size):
        rng = np.random.default_rng(size)
        cut = 0
        for _ in range(150):
            # Centres up to a quarter side outside the frame cut many blobs.
            center = rng.uniform(-size / 4, 5 * size / 4, size=2)
            axes = rng.uniform(1.0, 0.4 * size, size=2)
            blob = _ellipse_mask(size, center, axes, rng.uniform(0.0, np.pi))
            cut += bool(blob[0].any() or blob[-1].any() or blob[:, 0].any() or blob[:, -1].any())
            ref = dilate(blob, square_kernel(15))
            got = np.array([[_clear_of(blob, r, c) for c in range(size)] for r in range(size)])
            assert np.array_equal(got, ~ref)
        assert cut >= 50


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        manifest = synth_dataset(tmp_path / "ds", n=8, size=32, seed=2)
        loaded = load_dataset(manifest.path())
        images, labels, rois = generate_images(8, 32, seed=2)
        # 8-bit PGM quantization is the only loss
        assert np.abs(loaded.images - images).max() <= 0.5 / 255
        order = np.concatenate([loaded.split_indices["train"], loaded.split_indices["test"]])
        assert sorted(order.tolist()) == list(range(8))
        assert np.array_equal(loaded.labels, labels)
        assert np.array_equal(loaded.rois, rois)

    def test_byte_identical_per_seed(self, tmp_path):
        m1 = synth_dataset(tmp_path / "a", n=6, size=32, seed=9)
        m2 = synth_dataset(tmp_path / "b", n=6, size=32, seed=9)
        for e1, e2 in zip(m1.entries, m2.entries):
            b1 = (tmp_path / "a" / e1["image"]).read_bytes()
            b2 = (tmp_path / "b" / e2["image"]).read_bytes()
            assert b1 == b2
        assert (tmp_path / "a" / "manifest.json").read_text() == (
            tmp_path / "b" / "manifest.json"
        ).read_text()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nope.json")

    def test_bad_label(self, tmp_path):
        manifest = synth_dataset(tmp_path / "ds", n=4, size=32, seed=0)
        payload = json.loads(manifest.path().read_text())
        payload["entries"][0]["label"] = 7
        manifest.path().write_text(json.dumps(payload))
        with pytest.raises(BadLabelError, match="img_00000"):
            load_dataset(manifest.path())

    @pytest.mark.parametrize(
        "entries, match",
        [
            ([], r"entries must be a non-empty list"),
            ({"0": {"image": "img_00000.pgm", "label": 0}}, r"entries must be a non-empty list"),
            ([{"image": "img_00000.pgm", "label": 0}, {"label": 1}], r"entry 1 has no image"),
            ([{"image": "img_00000.pgm", "label": 0}, "img_00001.pgm"], r"entry 1 has no image"),
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, entries, match):
        manifest = synth_dataset(tmp_path / "ds", n=4, size=32, seed=0)
        payload = json.loads(manifest.path().read_text())
        payload["entries"] = entries
        manifest.path().write_text(json.dumps(payload))
        with pytest.raises(BadFormatError, match=match):
            load_dataset(manifest.path())

    @pytest.mark.parametrize(
        "split, match",
        [
            ([0.8, 0.2], r"split must be an object"),
            ({"train": "most"}, r"split 'train' must be a number in \[0, 1\]"),
            ({"train": -0.5}, r"split 'train' must be a number in \[0, 1\]"),
            ({"train": 0.8, "val": True}, r"split 'val' must be a number in \[0, 1\]"),
            ({"train": 0.9, "val": 0.9}, r"split train \+ val exceeds 1"),
        ],
    )
    def test_malformed_split_rejected(self, tmp_path, split, match):
        manifest = synth_dataset(tmp_path / "ds", n=4, size=32, seed=0)
        payload = json.loads(manifest.path().read_text())
        payload["split"] = split
        manifest.path().write_text(json.dumps(payload))
        with pytest.raises(BadFormatError, match=match):
            load_dataset(manifest.path())

    @pytest.mark.parametrize("split", [{"train": 1.0}, {"train": 0.0, "val": 0.5}, {"train": 0.5, "val": 0.5}])
    def test_manifest_split_leaving_a_side_empty_rejected(self, tmp_path, split):
        manifest = synth_dataset(tmp_path / "ds", n=4, size=32, seed=0, split=split)
        cfg = ExperimentConfig(dataset=DatasetSpec(manifest=str(manifest.path())))
        with pytest.raises(ValueError, match="leaves the train or test split empty"):
            prepare_trial_data(cfg, 0)

    def test_corrupt_image_named(self, tmp_path):
        manifest = synth_dataset(tmp_path / "ds", n=4, size=32, seed=0)
        (tmp_path / "ds" / "img_00001.pgm").write_bytes(b"P5\nbroken")
        with pytest.raises(BadFormatError, match="img_00001"):
            load_dataset(manifest.path())


CONFIG_TEXT = """
[experiment]
name = unit
trials = 2
seed = 0

[dataset]
n = 40
size = 32
seed = 11

[network]
arch = blob_cnn
scale = 0.5

[train]
epochs = 2
batch_size = 16
learning_rate = 0.2
seed = 3

[attack.fgsm]
epsilon = 0.1

[attack.kryptonite]
epsilon = 0.08
iterations = 4
decay_weight = 0.05

[defence.adv_train]
attack = fgsm
adversarial_fraction = 0.5
epochs = 2

[sweep]
axis = epsilon
values = 0, 0.05, 0.1
attacks = fgsm
samples = 10
"""


class TestConfig:
    def test_parse_full_config(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(CONFIG_TEXT)
        cfg = parse_config(p)
        assert cfg.name == "unit" and cfg.trials == 2
        assert cfg.dataset.n == 40
        assert cfg.network.scale == 0.5
        assert cfg.train.epochs == 2
        kind, acfg = cfg.attacks["kryptonite"]
        assert kind == "kryptonite"
        assert acfg.iterations == 4 and acfg.decay_weight == 0.05
        dcfg = cfg.defences["adv_train"]
        assert dcfg.attack_name == "fgsm"
        assert dcfg.attack.epsilon == 0.1  # resolved from [attack.fgsm]
        assert dcfg.train.epochs == 2
        assert cfg.sweep.values == (0.0, 0.05, 0.1)

    def test_unknown_option_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[attack.fgsm]\nepsilonn = 0.1\n")
        with pytest.raises(BadFormatError, match="epsilonn"):
            parse_config(p)

    def test_train_loss_option_rejected(self, tmp_path):
        # The loss follows the network head; there is no option to pick it.
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nloss = bce\n")
        with pytest.raises(BadFormatError, match="loss"):
            parse_config(p)

    def test_unknown_attack_kind(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[attack.warp]\nepsilon = 0.1\n")
        with pytest.raises(BadFormatError, match="warp"):
            parse_config(p)

    def test_sweep_roster_names_configured_attacks(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace("attacks = fgsm", "attacks = fgsm, pgd"))
        with pytest.raises(BadFormatError, match="pgd"):
            parse_config(p)

    def test_sweep_samples_positive(self, tmp_path):
        with pytest.raises(ValueError, match="samples"):
            SweepSpec(values=(0.1,), samples=0)
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace("samples = 10", "samples = 0"))
        with pytest.raises(ValueError, match="samples"):
            parse_config(p)

    def test_unknown_sweep_option_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        text = CONFIG_TEXT.replace("axis = epsilon", "axs = decay_weight")
        p.write_text(text.replace("samples = 10", "samplez = 3"))
        with pytest.raises(BadFormatError, match="axs.*samplez"):
            parse_config(p)

    def test_unknown_defence_kind(self, tmp_path):
        with pytest.raises(ValueError, match="jpeg"):
            DefenceConfig(kind="jpeg")
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT + "\n[defence.jpeg]\nseed = 1\n")
        with pytest.raises(ValueError, match="unknown defence kind 'jpeg'"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadFormatError):
            parse_config(tmp_path / "none.ini")

    @pytest.mark.parametrize("line", ["train = banana", "attack_name = pgd"])
    def test_defence_option_that_would_be_lost_rejected(self, tmp_path, line):
        # `train` is built from [train] and the epoch overrides, and
        # `attack` names the attack, so neither field is an option.
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace("attack = fgsm\n", f"attack = fgsm\n{line}\n"))
        with pytest.raises(BadFormatError, match=r"\[defence\.adv_train\]: unknown options \['" + line.split()[0]):
            parse_config(p)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("trials = 2", "trials = ten", r"\[experiment\]\.trials"),
            ("trials = 2", "trials = 0", r"\[experiment\]: trials must be >= 1"),
            ("samples = 10", "samples = ten", r"\[sweep\]\.samples"),
            ("samples = 10", "samples = 0", r"\[sweep\]: sweep samples must be >= 1"),
            ("values = 0, 0.05, 0.1", "values = 0.1 abc", r"\[sweep\]\.values.*abc"),
            ("values = 0, 0.05, 0.1\n", "", r"\[sweep\]: sweep values must be nonempty"),
            ("seed = 0\n", "seed = 0\nseeds = 1\n", r"\[experiment\]: unknown options \['seeds'\]"),
        ],
    )
    def test_experiment_and_sweep_errors_name_section(self, tmp_path, old, new, match):
        assert CONFIG_TEXT.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(BadFormatError, match=match):
            parse_config(p)

    @pytest.mark.parametrize(
        "kind, unread",
        [
            ("pixel_deflect", {"adversarial_fraction": "0.1", "epochs": "3", "temperature": "5"}),
            ("distill", {"attack": "nosuchattack", "deflections": "7", "seed": "9"}),
        ],
    )
    def test_defence_option_its_kind_does_not_read_rejected(self, tmp_path, kind, unread):
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT + f"\n[defence.d]\nkind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in unread.items()))
        with pytest.raises(BadFormatError, match=re.escape(f"[defence.d]: unknown options {sorted(unread)} for kind {kind!r}")):
            parse_config(p)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("arch = blob_cnn", "arch = resnet", "unknown arch 'resnet'"),
            ("scale = 0.5", "scale = 0", "scale must be finite and > 0"),
            ("scale = 0.5", "scale = -1", "scale must be finite and > 0"),
            ("scale = 0.5", "scale = nan", "scale must be finite and > 0"),
            ("scale = 0.5", "scale = inf", "scale must be finite and > 0"),
        ],
    )
    def test_network_arch_and_scale_checked(self, tmp_path, old, new, match):
        assert CONFIG_TEXT.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(BadFormatError, match=r"\[network\]: " + match):
            parse_config(p)

    @pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.ini")) + sorted(REPO.glob("perfbench/configs/*.ini")))
    def test_shipped_configs_parse(self, path):
        cfg = parse_config(path)
        assert 0 < cfg.dataset.train_size < cfg.dataset.n

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (AttackConfig, "alpha", math.nan),
            (AttackConfig, "alpha", math.inf),
            (AttackConfig, "decay_weight", math.nan),
            (AttackConfig, "decay_weight", math.inf),
            (AttackConfig, "initial_decay", math.nan),
            (AttackConfig, "initial_decay", math.inf),
            (AttackConfig, "overshoot", math.nan),
            (TrainConfig, "learning_rate", math.nan),
            (TrainConfig, "epochs", 0),
            (TrainConfig, "epochs", -3),
            (TrainConfig, "stop_accuracy", 99.5),
            (TrainConfig, "stop_accuracy", -0.1),
            (DefenceConfig, "temperature", math.nan),
            (DefenceConfig, "temperature", math.inf),
        ],
    )
    def test_hyperparameters_that_corrupt_every_output_rejected(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("iterations = 4\n", "iterations = 4\nalpha = nan\n", r"\[attack\.kryptonite\]: alpha"),
            ("decay_weight = 0.05", "decay_weight = inf", r"\[attack\.kryptonite\]: decay_weight"),
            ("epochs = 2\nbatch_size", "epochs = 0\nbatch_size", r"\[train\]: epochs must be >= 1"),
            ("learning_rate = 0.2", "learning_rate = nan", r"\[train\]: learning_rate"),
            ("epochs = 2\n\n[sweep]", "epochs = 0\n\n[sweep]", r"\[defence\.adv_train\] train overrides: epochs"),
            (
                "adversarial_fraction = 0.5\nepochs = 2\n",
                "adversarial_fraction = 0.5\nepochs = 2\n\n[defence.distill]\ntemperature = nan\n",
                r"\[defence\.distill\]: temperature",
            ),
        ],
    )
    def test_non_finite_or_empty_budget_in_a_config_file_rejected(self, tmp_path, old, new, match):
        assert CONFIG_TEXT.count(old) == 1
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(BadFormatError, match=match):
            parse_config(p)

    def test_batch_size_below_one_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace("batch_size = 16", "batch_size = 0"))
        with pytest.raises(BadFormatError, match=r"\[train\]: batch_size must be >= 1"):
            parse_config(p)

    @pytest.mark.parametrize("fraction", [1.0, 0.0, 0.01, 0.99])
    def test_split_leaving_a_side_empty_rejected(self, tmp_path, fraction):
        with pytest.raises(ValueError, match="split empty"):
            DatasetSpec(n=40, train_fraction=fraction)
        p = tmp_path / "bad.ini"
        p.write_text(CONFIG_TEXT.replace("n = 40", f"n = 40\ntrain_fraction = {fraction}"))
        with pytest.raises(BadFormatError, match=r"\[dataset\]: train_fraction"):
            parse_config(p)

    def test_every_option_each_section_accepts_parses(self, tmp_path):
        # Each option's type comes from its dataclass field, so this fails
        # if a field's annotation has no parser.
        p = tmp_path / "all.ini"
        p.write_text(
            "[experiment]\nname = every\ntrials = 1\nseed = 2\n"
            "[dataset]\nn = 40\nsize = 16\nseed = 3\ntrain_fraction = 0.75\nmanifest = set/manifest.json\n"
            "[network]\narch = reference\nscale = 0.25\n"
            "[train]\nepochs = 2\nbatch_size = 4\nlearning_rate = 0.05\nseed = 5\nstop_accuracy = 0.9\n"
            "[attack.a]\nkind = kryptonite\nepsilon = 0.1\niterations = 3\nalpha = 0.04\n"
            "decay_weight = 0.2\ninitial_decay = 0.4\novershoot = 0.01\nseed = 6\n"
            "[defence.adv]\nkind = adv_train\nattack = a\nadversarial_fraction = 0.3\nregenerate = once\nseed = 7\n"
            "epochs = 3\nbatch_size = 8\nlearning_rate = 0.2\n"
            "[defence.px]\nkind = pixel_deflect\ndeflections = 9\nwindow = 2\ndenoise = off\nseed = 8\n"
            "[defence.ds]\nkind = distill\ntemperature = 4\nepochs = 1\nbatch_size = 2\nlearning_rate = 0.3\n"
            "[sweep]\naxis = overshoot\nvalues = 0.1 0.2\nattacks = a\nsamples = 5\n"
        )
        cfg = parse_config(p)
        assert (cfg.name, cfg.trials, cfg.seed) == ("every", 1, 2)
        assert cfg.dataset == DatasetSpec(n=40, size=16, seed=3, train_fraction=0.75, manifest="set/manifest.json")
        assert (cfg.network.arch, cfg.network.scale) == ("reference", 0.25)
        assert cfg.train == TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=5, stop_accuracy=0.9)
        attack = AttackConfig(epsilon=0.1, iterations=3, alpha=0.04, decay_weight=0.2, initial_decay=0.4, overshoot=0.01, seed=6)
        assert cfg.attacks == {"a": ("kryptonite", attack)}
        adv, px, ds = cfg.defences.values()
        assert (adv.attack_name, adv.attack, adv.adversarial_fraction, adv.regenerate, adv.seed) == (
            "kryptonite", attack, 0.3, "once", 7
        )
        assert adv.train == TrainConfig(epochs=3, batch_size=8, learning_rate=0.2, seed=5, stop_accuracy=0.9)
        assert (px.deflections, px.window, px.denoise, px.seed) == (9, 2, False, 8)
        assert ds.temperature == 4.0 and (ds.train.epochs, ds.train.batch_size, ds.train.learning_rate) == (1, 2, 0.3)
        assert cfg.sweep == SweepSpec(axis="overshoot", values=(0.1, 0.2), attacks=("a",), samples=5)

    def test_defence_before_the_attack_it_names_gets_the_roster_attack(self, tmp_path):
        p = tmp_path / "order.ini"
        p.write_text(
            "[defence.adv_train]\nattack = fgsm\n"
            "[attack.pgd]\nepsilon = 0.2\niterations = 2\n"
            "[defence.distill]\ntemperature = 3\n"
            "[attack.fgsm]\nepsilon = 0.07\n"
        )
        cfg = parse_config(p)
        assert list(cfg.attacks) == ["pgd", "fgsm"]
        assert list(cfg.defences) == ["adv_train", "distill"]
        dcfg = cfg.defences["adv_train"]
        assert (dcfg.attack_name, dcfg.attack) == cfg.attacks["fgsm"] == ("fgsm", AttackConfig(epsilon=0.07))

    def test_manifest_split_is_not_checked_against_n(self):
        assert DatasetSpec(n=40, train_fraction=1.0, manifest="set/manifest.json").manifest


class TestReports:
    def rows(self):
        return [
            ReportRow(
                row="attack",
                network="blob_cnn",
                attack="fgsm",
                trial=0,
                clean_accuracy=0.95,
                accuracy_under_attack=0.4,
                roc_auc=0.7,
                pert_mean_percent=3.0,
                pert_worst_percent=5.0,
                seconds_per_sample=0.01,
            )
        ]

    def test_csv_single_row(self, tmp_path):
        path = emit_report(self.rows(), "csv", tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert len(comments) == 3  # deviation notes present
        assert data[0].startswith("row,network,attack")
        assert len(data) == 2

    def test_json_round_trip(self, tmp_path):
        rows = self.rows()
        path = emit_report(rows, "json", tmp_path / "r.json")
        back = load_report_json(path)
        assert back == rows

    def test_json_round_trip_with_nan(self, tmp_path):
        row = ReportRow(row="clean", network="n", trial=0, clean_accuracy=0.9)
        path = emit_report([row], "json", tmp_path / "r.json")
        back = load_report_json(path)[0]
        assert back.clean_accuracy == 0.9
        assert math.isnan(back.accuracy_under_attack)

    def test_empty_rows_error(self, tmp_path):
        with pytest.raises(IoError):
            emit_report([], "csv", tmp_path / "r.csv")

    def test_mean_rows(self):
        rows = [
            ReportRow(row="attack", network="n", attack="fgsm", trial=0, accuracy_under_attack=0.4),
            ReportRow(row="attack", network="n", attack="fgsm", trial=1, accuracy_under_attack=0.6),
        ]
        agg = mean_rows(rows)
        assert len(agg) == 1
        assert agg[0].trial == -1
        assert agg[0].accuracy_under_attack == pytest.approx(0.5)

    def test_worst_below_mean_rejected(self):
        with pytest.raises(AssertionError):
            ReportRow(
                row="attack",
                network="n",
                trial=0,
                pert_mean_percent=5.0,
                pert_worst_percent=3.0,
            )
