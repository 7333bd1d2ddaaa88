"""Report rows of perfbench's experiment configs, dumped per source tree and diffed.

    python3 benchmarks/rows_equal.py dump --tree DIR --out parent.json
    python3 benchmarks/rows_equal.py dump --tree . --out change.json
    python3 benchmarks/rows_equal.py diff parent.json change.json

`dump` imports advlab from DIR/src, runs `run_experiment` on each of
`perfbench/configs/{train,attack,defend}.ini` of this checkout (so both
trees see the same configs) and writes every report row without
`seconds_per_sample`, the one column that is a wall-clock time. Floats are written exactly (JSON floats round-trip), so
`diff` compares them bit for bit, NaN equal to NaN. `diff` prints each
differing cell and exits 1 when any row differs. The script reads the
configs and never writes them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "perfbench" / "configs"
CONFIGS = ("train", "attack", "defend")
TIMED = "seconds_per_sample"


def dump(tree: Path) -> dict[str, list[dict]]:
    """Config name -> its report rows as dicts, TIMED left out."""
    sys.path.insert(0, str(tree.resolve() / "src"))
    from advlab.bench import parse_config, run_experiment

    rows = {}
    for name in CONFIGS:
        report = run_experiment(parse_config(CONFIG_DIR / f"{name}.ini"))
        rows[name] = [{k: v for k, v in dataclasses.asdict(r).items() if k != TIMED} for r in report]
    return rows


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def diff(a: dict[str, list[dict]], b: dict[str, list[dict]]) -> list[str]:
    """One line per config or row count that differs, and per differing cell."""
    out = [f"config {name} in one dump only" for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        if len(a[name]) != len(b[name]):
            out.append(f"{name}: {len(a[name])} rows vs {len(b[name])}")
            continue
        for i, (ra, rb) in enumerate(zip(a[name], b[name])):
            differing = [k for k in ra.keys() | rb.keys() if not _same(ra.get(k), rb.get(k))]
            out += [f"{name} row {i} {k}: {ra.get(k)!r} vs {rb.get(k)!r}" for k in sorted(differing)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write one tree's report rows")
    d.add_argument("--tree", required=True, type=Path, help="advlab checkout whose src/ to import")
    d.add_argument("--out", required=True, type=Path)
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "dump":
        rows = dump(args.tree)
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
        print(f"{sum(map(len, rows.values()))} rows of {', '.join(rows)} -> {args.out}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    lines = diff(a, b)
    counts = ", ".join(f"{name} {len(rows)} rows" for name, rows in a.items())
    print("\n".join(lines) if lines else f"equal: {counts}, every column but {TIMED}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
