"""Alternating parent/change runs of perfbench, summarised into BENCH_<pr>.json.

    python3 benchmarks/pairs.py --parent DIR --change DIR \
        --workload attack --seeds 201-210,7919 --pr 5

Each side is a directory holding an advlab checkout of one commit, such
as a git worktree or a `git archive` export. For every seed the script
runs `perfbench/run.py --workload W --seed S --trace 0` once on each
side, alternating which side goes first, and keeps the JSON line each
run prints last; perfbench's own default sets the run length. It writes
every pair, the `env` line of the first run (nproc, numpy, BLAS), and
per side the median and quartiles of each end-to-end metric, plus the
number of pairs each side won per metric. Each invocation appends one batch under
its workload's key, so a file keeps every batch run for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BETTER = {"setup_s": "lower", "wall_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower", "fidelity": "higher", "ok_ratio": "higher"}


def parse_seeds(text: str) -> list[int]:
    """'201-203,7919' -> [201, 202, 203, 7919]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(result JSON, env) of one untraced perfbench run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), env


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    out = {"parent": {}, "change": {}, "change_wins": {}}
    for name, better in BETTER.items():
        sides = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
        for s, values in sides.items():
            out[s][name] = quartiles(values)
        sign = 1 if better == "higher" else -1
        out["change_wins"][name] = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
    out["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 201-210,7919")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    args = parser.parse_args(argv)

    out_path = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out_path.read_text()) if out_path.exists() else {}
    trees = {"parent": args.parent, "change": args.change}
    pairs, env = [], None
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], side_env = run_once(trees[side], args.workload, seed)
            env = env or side_env
        pairs.append(pair)
        got = {s: pair[s]["metrics"]["items_per_s"]["value"] for s in ("parent", "change")}
        print(f"{args.workload} seed {seed}: items_per_s parent {got['parent']:.4g} change {got['change']:.4g}", flush=True)
    bench.setdefault("env", env)
    bench.setdefault(args.workload, []).append({"pairs": pairs, "summary": summarise(pairs)})
    out_path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{len(pairs)} pairs -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
