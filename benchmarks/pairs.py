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

Each metric also gets three verdicts, which the script prints at the end:
`claimable` when the change won at least 9 in 10 of at least 10 pairs and
its median beats the parent's by more than the parent's quartile
distance; `beyond_bound` when the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json, taken as a
share of the parent's median; and `unresolved` when the parent's own
quartile distance is wider than that bound, so the runs cannot tell a
change within it from none, unless every change run beats every parent
run. The script reads BENCHMARK.json and never writes it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def end_to_end_metrics(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics by name: better, bound, unit."""
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


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


def summarise(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    out = {"parent": {}, "change": {}, "change_wins": {}, "claimable": {}, "beyond_bound": {}, "unresolved": {}}
    for name, metric in metrics.items():
        sides = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
        for s, values in sides.items():
            out[s][name] = quartiles(values)
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent = out["parent"][name]
        gain = sign * (out["change"][name]["median"] - parent["median"])
        spread = parent["q3"] - parent["q1"]
        bound = metric["bound"] * abs(parent["median"])
        separated = min(sign * c for c in sides["change"]) > max(sign * p for p in sides["parent"])
        out["change_wins"][name] = wins
        out["claimable"][name] = (
            len(pairs) >= MIN_CLAIM_PAIRS
            and wins >= CLAIM_WIN_SHARE * len(pairs)
            and gain > spread
        )
        out["beyond_bound"][name] = -gain > bound
        out["unresolved"][name] = spread > bound and not separated
    out["pairs"] = len(pairs)
    return out


def verdicts(workload: str, summary: dict) -> list[str]:
    """One line per metric: medians, wins and the three verdicts."""
    lines = []
    for name, wins in summary["change_wins"].items():
        p, c = summary["parent"][name], summary["change"][name]
        lines.append(
            f"{workload} {name}: median {p['median']:.4g} -> {c['median']:.4g}"
            f" (parent quartiles {p['q1']:.4g}-{p['q3']:.4g}), change won {wins} of {summary['pairs']};"
            f" claimable {'yes' if summary['claimable'][name] else 'no'},"
            f" beyond bound {'YES' if summary['beyond_bound'][name] else 'no'},"
            f" unresolved {'YES' if summary['unresolved'][name] else 'no'}"
        )
    return lines


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
    summary = summarise(pairs, end_to_end_metrics())
    bench.setdefault("env", env)
    bench.setdefault(args.workload, []).append({"pairs": pairs, "summary": summary})
    out_path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{len(pairs)} pairs -> {out_path}")
    print("\n".join(verdicts(args.workload, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
