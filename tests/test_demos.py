"""Demo scripts run end to end against the public API."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

from advlab.attacks import ATTACK_NAMES
from advlab.bench import ReportRow
from advlab.gradnet import load_network

REPO = Path(__file__).resolve().parents[1]


def run_demo(script, cwd, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_roi_extraction_demo(tmp_path):
    out = run_demo("01_roi_extraction.py", tmp_path, timeout=120)
    assert "final mask:" in out
    assert (tmp_path / "demo_out" / "roi_mask.pgm").exists()


def test_train_classifier_demo(tmp_path):
    # No accuracy is asserted: this model's training plateaus.
    lines = run_demo("02_train_classifier.py", tmp_path, timeout=300).splitlines()
    assert "reference descriptor on 126x126x1: 60,307,326 parameters" in lines
    net = load_network(tmp_path / "demo_out" / "blob_cnn.net")
    assert f"blob_cnn: {net.parameter_count:,} parameters" in lines


def test_attack_tour_demo(tmp_path):
    lines = run_demo("03_attack_tour.py", tmp_path, timeout=300).splitlines()
    rows = [f for f in map(str.split, lines) if f and f[0] in ATTACK_NAMES]
    assert [r[0] for r in rows] == list(ATTACK_NAMES)
    for name, flips, linf, l2, ms in rows:
        assert 0 <= int(flips) <= 60
        assert float(linf) <= 0.04 + 1e-6
        assert float(l2) >= 0.0 and float(ms) > 0.0
    steps = [ln for ln in lines if re.fullmatch(r"  t=\s*\d+ progress=[\d.]+ mu=[\d.]+", ln)]
    assert len(steps) == 16


def test_defence_tour_demo(tmp_path):
    out = run_demo("04_defence_tour.py", tmp_path, timeout=300)
    lines = out.splitlines()
    models = ("clean accuracy:", "undefended accuracy under attack:", "adv-trained:", "pixel deflection:", "distilled student:")
    assert len(lines) >= len(models)
    for line, prefix in zip(lines, models):
        assert line.startswith(prefix)
        assert all(0.0 <= float(v) <= 1.0 for v in re.findall(r"\d+\.\d+", line))
    assert re.findall(r"^  T=\s*(\d+) first sample -> ", out, re.M) == ["1", "5", "20"]


def test_benchmark_report_demo(tmp_path):
    lines = run_demo("05_benchmark_report.py", tmp_path, timeout=300).splitlines()
    means = [f for f in map(str.split, lines) if len(f) > 2 and f[0] == "attack" and f[2] == "mean"]
    assert [m[1] for m in means] == ["fgsm", "mifgsm", "kryptonite"]
    assert "epsilon sweep (6 points):" in lines
    assert sum(1 for ln in lines if re.match(r"  \w+ +eps=", ln)) == 6
    csv_lines = (tmp_path / "demo_out" / "mini.csv").read_text().splitlines()
    header = next(ln for ln in csv_lines if not ln.startswith("#"))
    assert header.split(",") == [f.name for f in dataclasses.fields(ReportRow)]
