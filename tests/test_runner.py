"""End-to-end runner behaviour on deliberately tiny experiments."""

import math

import numpy as np
import pytest

from advlab.bench import parse_config, run_experiment, sweep, time_attacks
from advlab.bench.config import SweepSpec
from advlab.errors import BadFormatError

TINY = """
[experiment]
name = tiny
trials = 2
seed = 0

[dataset]
n = 36
size = 32
seed = 9
train_fraction = 0.75

[network]
arch = blob_cnn
scale = 0.5

[train]
epochs = 2
batch_size = 8
learning_rate = 0.15
seed = 0

[attack.fgsm]
epsilon = 0.08

[attack.kryptonite]
epsilon = 0.08
iterations = 3
decay_weight = 0.02

[defence.adv_train]
kind = adv_train
attack = fgsm
adversarial_fraction = 0.5
epochs = 2

[defence.pixel_deflect]
kind = pixel_deflect
deflections = 10
window = 2

[defence.distill]
kind = distill
temperature = 5
epochs = 2
"""


@pytest.fixture(scope="module")
def tiny_rows(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.ini"
    p.write_text(TINY)
    cfg = parse_config(p)
    return run_experiment(cfg)


class TestRunExperiment:
    def test_row_inventory(self, tiny_rows):
        kinds = {(r.row, r.attack, r.defence, r.trial) for r in tiny_rows}
        assert ("clean", None, None, 0) in kinds
        assert ("attack", "fgsm", None, 1) in kinds
        assert ("attack", "kryptonite", None, 0) in kinds
        for defence in ("adv_train", "pixel_deflect", "distill"):
            assert ("defence", "fgsm", defence, 0) in kinds
        # mean rows
        assert ("attack", "fgsm", None, -1) in kinds
        assert ("defence", "kryptonite", "distill", -1) in kinds

    def test_values_in_range(self, tiny_rows):
        for r in tiny_rows:
            for field in ("clean_accuracy", "accuracy_under_attack", "roc_auc"):
                v = getattr(r, field)
                if not math.isnan(v):
                    assert 0.0 <= v <= 1.0
            if not math.isnan(r.seconds_per_sample):
                assert r.seconds_per_sample >= 0.0

    def test_only_attack_rows_carry_perturbation_and_timing(self, tiny_rows):
        columns = ("pert_mean_percent", "pert_worst_percent", "seconds_per_sample")
        assert {r.row for r in tiny_rows} == {"clean", "attack", "defence"}
        for r in tiny_rows:
            values = [getattr(r, c) for c in columns]
            if r.row == "attack":
                assert not any(math.isnan(v) for v in values), r
            else:
                assert all(math.isnan(v) for v in values), r

    def test_null_attack_equals_clean(self, tmp_path):
        cfg_text = TINY.replace("epsilon = 0.08", "epsilon = 0.0").split("[defence.adv_train]")[0]
        p = tmp_path / "null.ini"
        p.write_text(cfg_text)
        rows = run_experiment(parse_config(p))
        clean = next(r for r in rows if r.row == "clean" and r.trial == 0)
        fgsm_row = next(r for r in rows if r.attack == "fgsm" and r.trial == 0)
        assert fgsm_row.accuracy_under_attack == clean.clean_accuracy

    def test_deterministic_rerun(self, tmp_path):
        import dataclasses

        p = tmp_path / "det.ini"
        p.write_text(TINY.split("[defence.adv_train]")[0])
        a = run_experiment(parse_config(p))
        b = run_experiment(parse_config(p))
        # every statistic is seed-determined; wall-clock timing is not
        strip = lambda r: dataclasses.replace(r, seconds_per_sample=0.0)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_zero_gradient_sample_in_defence_row(self, tmp_path, monkeypatch, zero_gradient_at):
        from advlab.bench import runner

        cfg_text = TINY.replace("trials = 2", "trials = 1").split("[attack.kryptonite]")[0]
        cfg_text = cfg_text.replace("[attack.fgsm]", "[attack.mifgsm]\niterations = 2")
        p = tmp_path / "zero.ini"
        p.write_text(cfg_text + "\n[defence.pixel_deflect]\nkind = pixel_deflect\ndeflections = 10\nwindow = 2\n")
        cfg = parse_config(p)
        flat = runner.prepare_trial_data(cfg, 0).test_x[0]
        attacked = []
        real_attacks = runner.run_attacks

        def recording(kind, net, xs, ys, acfg, rois=None):
            results = real_attacks(kind, net, xs, ys, acfg, rois=rois)
            attacked.append((kind, results))
            return results

        zero_gradient_at(flat)
        monkeypatch.setattr(runner, "run_attacks", recording)
        rows = run_experiment(cfg)
        assert [kind for kind, _ in attacked] == ["mifgsm"]  # one run scores the attack row and the defence row
        for _, res in attacked:
            assert np.array_equal(res.adversarial[0], flat)
            assert (res.linf[0], res.l2_percent[0], res.iterations_used[0], res.success[0]) == (0.0, 0.0, 0, False)
        defence = next(r for r in rows if r.row == "defence" and r.trial == 0)
        assert 0.0 <= defence.accuracy_under_attack <= 1.0

    def test_pixel_deflect_row_is_a_transfer_from_the_bare_net(self, tmp_path):
        # The row, rebuilt from public functions: attack the undefended
        # net, deflect every adversarial and every clean image with the
        # net's own saliency, score both on the net. Trial 1, where the
        # seed offsets are nonzero.
        from dataclasses import replace

        from advlab.attacks import run_attacks
        from advlab.bench import prepare_trial_data, train_network
        from advlab.defences import gradient_saliency, pixel_deflect
        from advlab.metrics import accuracy, roc_auc

        p = tmp_path / "deflect.ini"
        p.write_text(
            TINY.split("[attack.kryptonite]")[0]
            + "\n[defence.pixel_deflect]\nkind = pixel_deflect\ndeflections = 10\nwindow = 2\nseed = 3\n"
        )
        cfg = parse_config(p)
        trial = 1
        row = next(r for r in run_experiment(cfg) if r.row == "defence" and r.trial == trial)

        data = prepare_trial_data(cfg, trial)
        net = train_network(cfg, data, trial)
        kind, acfg = cfg.attacks["fgsm"]
        advs = run_attacks(kind, net, data.test_x, data.test_y, replace(acfg, seed=acfg.seed + trial)).adversarial
        dcfg = cfg.defences["pixel_deflect"]
        dcfg = replace(dcfg, seed=dcfg.seed + trial)

        def scored(xs):
            preds, scores = net.predict_and_score(np.stack([pixel_deflect(x, gradient_saliency(net, x[None])[0], dcfg) for x in xs]))
            return accuracy(preds, data.test_y), roc_auc(scores, data.test_y)

        clean_acc, _ = scored(data.test_x)
        attacked_acc, attacked_auc = scored(advs)
        assert (row.attack, row.defence) == ("fgsm", "pixel_deflect")
        assert (row.clean_accuracy, row.accuracy_under_attack, row.roc_auc) == (clean_acc, attacked_acc, attacked_auc)


    def test_bare_net_is_attacked_once_per_attack(self, tmp_path, monkeypatch):
        # The undefended row and the pixel_deflect row share their source,
        # the bare net, so they score one run of each attack.
        from advlab.bench import runner

        nets, attacked = [], []
        real_train, real_attacks = runner.train_network, runner.run_attacks

        def training(*args):
            nets.append(real_train(*args))
            return nets[-1]

        def recording(kind, net, *args, **kwargs):
            attacked.append((kind, next((t for t, bare in enumerate(nets) if bare is net), None)))
            return real_attacks(kind, net, *args, **kwargs)

        monkeypatch.setattr(runner, "train_network", training)
        monkeypatch.setattr(runner, "run_attacks", recording)
        p = tmp_path / "deflect.ini"
        p.write_text(
            TINY.split("[defence.adv_train]")[0]
            + "\n[defence.pixel_deflect]\nkind = pixel_deflect\ndeflections = 10\nwindow = 2\n"
        )
        rows = run_experiment(parse_config(p))
        assert attacked == [("fgsm", 0), ("kryptonite", 0), ("fgsm", 1), ("kryptonite", 1)]
        assert sum(r.row == "defence" for r in rows) == 2 * 2 + 2  # per trial and attack, plus means


class TestRoiExtraction:
    ROI_ROSTER = (
        TINY.split("[defence.adv_train]")[0]
        + "\n[attack.kryptonite_masked]\nepsilon = 0.08\niterations = 3\ndecay_weight = 0.02\n"
        + "\n[defence.pixel_deflect]\nkind = pixel_deflect\ndeflections = 10\nwindow = 2\n"
    )

    def _roi_mask_calls(self, tmp_path, monkeypatch, text):
        import advlab.attacks as attacks

        calls = []
        real = attacks.roi_mask
        monkeypatch.setattr(attacks, "roi_mask", lambda img, *a, **k: calls.append(1) or real(img, *a, **k))
        p = tmp_path / "roi.ini"
        p.write_text(text)
        cfg = parse_config(p)
        run_experiment(cfg)
        return len(calls), cfg

    def test_once_per_test_image_per_trial(self, tmp_path, monkeypatch):
        from advlab.bench import runner

        calls, cfg = self._roi_mask_calls(tmp_path, monkeypatch, self.ROI_ROSTER)
        n_test = runner.prepare_trial_data(cfg, 0).test_x.shape[0]
        assert {kind for kind, _ in cfg.attacks.values()} == {"fgsm", "kryptonite", "kryptonite_masked"}
        assert list(cfg.defences) == ["pixel_deflect"]
        assert calls == cfg.trials * n_test

    def test_none_without_a_roi_guided_attack(self, tmp_path, monkeypatch):
        text = self.ROI_ROSTER.replace("[attack.kryptonite]", "[attack.ifgsm]")
        text = text.replace("[attack.kryptonite_masked]", "[attack.mifgsm]")
        calls, cfg = self._roi_mask_calls(tmp_path, monkeypatch, text)
        assert {kind for kind, _ in cfg.attacks.values()} == {"fgsm", "ifgsm", "mifgsm"}
        assert calls == 0


class TestSweep:
    def test_epsilon_zero_point_equals_clean_auc(self, tmp_path):
        p = tmp_path / "s.ini"
        p.write_text(
            TINY.split("[defence.adv_train]")[0]
            + "\n[sweep]\naxis = epsilon\nvalues = 0, 0.08\nattacks = fgsm\nsamples = 9\n"
        )
        cfg = parse_config(p)
        records = sweep(cfg)
        assert len(records) == 2
        zero_point = next(r for r in records if r["value"] == 0.0)
        rows = run_experiment(
            parse_config(p)
        )
        clean = next(r for r in rows if r.row == "clean" and r.trial == 0)
        assert zero_point["roc_auc"] == pytest.approx(clean.roc_auc, abs=1e-12)

    def test_axis_filtering(self, tmp_path):
        p = tmp_path / "s.ini"
        p.write_text(TINY.split("[defence.adv_train]")[0])
        cfg = parse_config(p)
        records = sweep(cfg, SweepSpec(axis="decay_weight", values=(0.01, 0.1), samples=6))
        assert {r["attack"] for r in records} == {"kryptonite"}
        with pytest.raises(BadFormatError, match="overshoot axis varies only deepfool"):
            sweep(cfg, SweepSpec(axis="overshoot", values=(0.0, 0.1), samples=6))

    @pytest.mark.parametrize(
        "section, spec, match",
        [
            ("axis = epsilon\nvalues = 0.05 1.5", None, r"\[sweep\]: epsilon must lie in \[0, 1\], got 1.5"),
            ("axis = decay_weight\nvalues = 0.01 nan", None, r"\[sweep\]: decay_weight.*must be finite"),
            # The roster holds fgsm and kryptonite; only deepfool takes an overshoot.
            ("", SweepSpec(axis="overshoot", values=(0.1,)), r"\[sweep\]: the overshoot axis varies only deepfool"),
            ("", SweepSpec(axis="epsilon", values=(0.1,), attacks=("nope",)), r"\[sweep\]: attack 'nope' is not a configured"),
        ],
        ids=["epsilon", "decay_weight", "no_attack_on_axis", "unknown_attack"],
    )
    def test_bad_value_rejected_before_any_work(self, tmp_path, monkeypatch, section, spec, match):
        from advlab.bench import runner

        monkeypatch.setattr(runner, "prepare_trial_data", lambda *a: pytest.fail("made data before checking the grid"))
        monkeypatch.setattr(runner, "train_network", lambda *a: pytest.fail("trained before checking the grid"))
        p = tmp_path / "s.ini"
        p.write_text(TINY.split("[defence.adv_train]")[0] + (f"\n[sweep]\n{section}\n" if section else ""))
        with pytest.raises(BadFormatError, match=match):
            sweep(parse_config(p), spec)


class TestTimeAttacks:
    def test_attacks_take_turns_per_sample(self, tmp_path, monkeypatch):
        from advlab.bench import runner

        p = tmp_path / "t.ini"
        p.write_text(TINY.split("[defence.adv_train]")[0])
        calls = []
        real = runner.run_attack

        def recording(kind, net, x, y, cfg, roi=None):
            calls.append((kind, roi is not None))
            return real(kind, net, x, y, cfg, roi=roi)

        monkeypatch.setattr(runner, "run_attack", recording)
        times = time_attacks(parse_config(p), samples=3)
        assert list(times) == ["fgsm", "kryptonite"]
        assert all(t > 0.0 for t in times.values())
        assert calls == [("fgsm", False), ("kryptonite", True)] * 3
