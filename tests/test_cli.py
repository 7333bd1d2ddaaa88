"""CLI surface: subcommands, exit codes, file outputs."""

import json

import numpy as np
import pytest

from advlab.bench.config import SWEEP_AXES
from advlab.cli import build_parser, main
from advlab.imagekit import read_mask, write_image

SMALL_CONFIG = """
[experiment]
name = clismoke
trials = 1
seed = 0

[dataset]
n = 24
size = 32
seed = 4
train_fraction = 0.75

[network]
arch = blob_cnn
scale = 0.5

[train]
epochs = 1
batch_size = 8
learning_rate = 0.2
seed = 0

[attack.fgsm]
epsilon = 0.1

[sweep]
axis = epsilon
values = 0, 0.1
attacks = fgsm
samples = 4
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(SMALL_CONFIG)
    return p


class TestCli:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "6", "--size", "32", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert len(list(out.glob("img_*.pgm"))) == 6

    def test_roi_extracts_mask(self, tmp_path):
        from advlab.bench import generate_images

        xs, _, _ = generate_images(4, 32, seed=2)
        img_path = tmp_path / "sample.pgm"
        write_image(img_path, xs[0])
        out = tmp_path / "mask.pgm"
        assert main(["roi", "--image", str(img_path), "--out", str(out)]) == 0
        mask = read_mask(out)
        assert mask.sum() >= 1

    def test_train_saves_model(self, tmp_path, config_file):
        out = tmp_path / "model"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "clismoke.net").exists()
        assert (out / "clismoke.net.json").exists()

    def test_attack_writes_records(self, tmp_path, config_file):
        out = tmp_path / "attacks"
        assert (
            main(["attack", "--config", str(config_file), "--out", str(out), "--samples", "3"])
            == 0
        )
        records = json.loads((out / "attack_records.json").read_text())
        assert len(records) == 3
        assert {"attack", "linf", "success"} <= set(records[0])
        for rec in records:  # stored norms never exceed the configured budget
            assert rec["linf"] <= 0.1 + 1e-6

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_attack_rejects_samples_below_one(self, tmp_path, config_file, capsys, samples):
        out = tmp_path / "attacks"
        assert main(["attack", "--config", str(config_file), "--out", str(out), "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err
        assert not (out / "attack_records.json").exists()

    def test_attack_records_zero_gradient_sample(self, tmp_path, monkeypatch):
        from advlab.bench import parse_config, prepare_trial_data, train_network
        from advlab.gradnet import Network

        p = tmp_path / "mi.ini"
        # Without [sweep], whose roster names fgsm.
        p.write_text(SMALL_CONFIG.split("[sweep]")[0].replace("[attack.fgsm]", "[attack.mifgsm]\niterations = 2"))
        cfg = parse_config(p)
        data = prepare_trial_data(cfg, 0)
        clean_preds = train_network(cfg, data, 0).predict(data.test_x[:2])
        monkeypatch.setattr(Network, "input_gradient", lambda self, x, y: np.zeros_like(x))
        out = tmp_path / "attacks"
        assert main(["attack", "--config", str(p), "--out", str(out), "--samples", "2"]) == 0
        records = json.loads((out / "attack_records.json").read_text())
        assert [r["prediction"] for r in records] == [int(v) for v in clean_preds]
        for rec in records:
            assert (rec["linf"], rec["l2_percent"], rec["iterations_used"]) == (0, 0.0, 0)
            assert rec["success"] is False
            assert rec["zero_gradient"] is True

    def test_sweep_writes_csv(self, tmp_path, config_file):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        csv_text = (out / "clismoke_sweep_epsilon.csv").read_text()
        assert csv_text.splitlines()[0] == "attack,axis,value,roc_auc"
        assert len(csv_text.splitlines()) == 3

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_sweep_axis_choices_are_sweep_axes(self, axis):
        args = build_parser().parse_args(["sweep", "--config", "exp.ini", "--axis", axis])
        assert args.axis == axis

    def test_malformed_manifest_exits_with_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"seed": 0, "split": {"train": 0.5}, "entries": [{"label": 0}]}))
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace("seed = 4\n", f"seed = 4\nmanifest = {manifest}\n"))
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "entry 0 has no image" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("sweep", ("attacks = fgsm", "attacks = pgd")),  # no [attack.pgd]
            ("defend", ("[sweep]", "[defence.jpeg]\nseed = 1\n\n[sweep]")),  # no kind, not a defence
        ],
    )
    def test_config_errors_exit_before_training(self, tmp_path, monkeypatch, capsys, command, edit):
        from advlab.bench import runner

        monkeypatch.setattr(runner, "train_network", lambda *a: pytest.fail("trained before the config error"))
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace(*edit))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "advlab: error:" in capsys.readouterr().err

    def test_sweep_value_out_of_range_for_the_axis_option_exits_before_training(self, tmp_path, monkeypatch, capsys):
        # 1.5 is a valid overshoot, the file's axis, but not an epsilon.
        from advlab.bench import runner

        monkeypatch.setattr(runner, "train_network", lambda *a: pytest.fail("trained before the sweep error"))
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.replace("axis = epsilon\nvalues = 0, 0.1", "axis = overshoot\nvalues = 0.05, 1.5"))
        assert main(["sweep", "--config", str(p), "--axis", "epsilon", "--out", str(tmp_path / "out")]) == 2
        assert "[sweep]: epsilon must lie in [0, 1], got 1.5" in capsys.readouterr().err

    def test_report_writes_csv_and_json(self, tmp_path, config_file):
        out = tmp_path / "report"
        assert main(["report", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "clismoke.csv").exists()
        assert (out / "clismoke.json").exists()

    def test_error_exit_nonzero(self, tmp_path, capsys):
        assert main(["roi", "--image", str(tmp_path / "missing.pgm"), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_defend_requires_defences(self, tmp_path, config_file, capsys):
        assert main(["defend", "--config", str(config_file), "--out", str(tmp_path)]) == 2
        assert "defence" in capsys.readouterr().err
