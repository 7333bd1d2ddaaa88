"""Smoke test of the benchmark itself, at tiny sizes (about 20 s):

    python3 -m pytest perfbench/smoke_test.py -q
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool):
    buf = io.StringIO()
    code = run.run(workload, seed=0, seconds=0.1, trace=trace, tiny=True, out=buf)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, lines, result = _run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        printed = dict(expected)
    else:
        printed = {
            "setup_s": "s",
            "wall_s": "s",
            "peak_rss_mb": "MB",
            "error_rate": "ratio",
            run.ITEMS_NAME[workload]: "1/s",
            run.FIDELITY_NAME[workload]: "ratio",
        }
        if workload == "roi":
            printed.update(roi_ms_p50="ms", roi_ms_p99="ms")
    table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln.startswith("  ")}
    for name, unit in printed.items():
        assert name in table, name
        assert unit in table[name], (name, table[name])


def test_out_of_ball_adversarial_fails_the_check(monkeypatch):
    import advlab.attacks as attacks
    import numpy as np

    real = attacks.run_attack

    def pushed_out(kind, net, x, y, cfg, roi=None):
        res = real(kind, net, x, y, cfg, roi)
        res.adversarial = np.clip(x + 2.0 * cfg.epsilon, 0.0, 1.0)
        return res

    monkeypatch.setattr(attacks, "run_attack", pushed_out)
    code, lines, result = _run("attack", False)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any("leaves the epsilon-ball" in ln for ln in lines)


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_checks_flag_unclosed_unnested_and_uncovered_passes():
    run.import_program()
    import layers
    from tracer import Span, Tracer

    tracer = Tracer()
    tracer.spans = [
        Span("bench.pass", 0.0, None, "pass0", end=10.0),
        Span("bench.report", 1.0, 0, "pass0", end=2.0),
        Span("metrics", 9.0, 0, "pass0", end=11.0),  # ends after its parent
        Span("metrics", 3.0, 0, "pass0"),  # never closed
    ]
    assert layers.unnested_spans(tracer, "pass0") == ["metrics outside its parent bench.pass", "metrics left open"]
    del tracer.spans[2:]
    assert layers.unnested_spans(tracer, "pass0") == []
    metrics = layers.pass_metrics(tracer, "pass0", {})
    assert layers.self_time_gap(metrics, 10.0) == 0.0
    assert layers.self_time_gap(metrics, 20.0) == 0.5  # half the clocked pass lies outside the root span
