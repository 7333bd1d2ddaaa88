"""Demo scripts run end to end against the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

from advlab.attacks import ATTACK_NAMES

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
