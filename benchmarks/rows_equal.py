"""Report rows and parsed configs, dumped per source tree and diffed.

    python3 benchmarks/rows_equal.py dump --tree DIR --out parent.json
    python3 benchmarks/rows_equal.py dump --tree . --out change.json
    python3 benchmarks/rows_equal.py diff parent.json change.json

`dump` imports advlab from DIR/src, runs `run_experiment` on each of
`perfbench/configs/{train,attack,defend}.ini` and `configs/defences.ini`
of this checkout (so both trees see the same configs; the last is the
one whose defences inherit a `[train]` stop rule) and writes every
report row without `seconds_per_sample`, the one column that is a
wall-clock time. Floats are written exactly (JSON floats round-trip), so
`diff` compares them bit for bit, NaN equal to NaN. `dump` also records
the `repr` of the `ExperimentConfig` that `parse_config` makes of every
file in `configs/` and `perfbench/configs/` of this checkout. `diff`
prints each differing cell and each config file that parses
differently, and exits 1 when anything differs. The script reads the
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
RUNS = {name: CONFIG_DIR / f"{name}.ini" for name in ("train", "attack", "defend")}
RUNS["defences"] = ROOT / "configs" / "defences.ini"
CONFIG_FILES = sorted(ROOT.glob("configs/*.ini")) + sorted(CONFIG_DIR.glob("*.ini"))
TIMED = "seconds_per_sample"


def parsed_configs() -> dict[str, str]:
    """Path of every file in CONFIG_FILES, relative to ROOT -> repr of the
    ExperimentConfig the importable advlab parses from it."""
    from advlab.bench import parse_config

    return {str(p.relative_to(ROOT)): repr(parse_config(p)) for p in CONFIG_FILES}


def dump(tree: Path) -> dict:
    """{"rows": config name -> its report rows as dicts, TIMED left out,
    "configs": parsed_configs()}, with advlab imported from tree."""
    sys.path.insert(0, str(tree.resolve() / "src"))
    from advlab.bench import parse_config, run_experiment

    rows = {}
    for name, path in RUNS.items():
        report = run_experiment(parse_config(path))
        rows[name] = [{k: v for k, v in dataclasses.asdict(r).items() if k != TIMED} for r in report]
    return {"rows": rows, "configs": parsed_configs()}


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


def diff_configs(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per config file that parses differently or is in one dump only."""
    out = [f"config file {path} in one dump only" for path in sorted(set(a) ^ set(b))]
    return out + [f"config file {path} parses differently" for path in sorted(set(a) & set(b)) if a[path] != b[path]]


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
        out = dump(args.tree)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        rows = out["rows"]
        print(f"{sum(map(len, rows.values()))} rows of {', '.join(rows)} and {len(out['configs'])} parsed configs -> {args.out}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    lines = diff(a["rows"], b["rows"]) + diff_configs(a["configs"], b["configs"])
    counts = ", ".join(f"{name} {len(rows)} rows" for name, rows in a["rows"].items())
    summary = f"equal: {counts}, every column but {TIMED}; {len(a['configs'])} config files parse alike"
    print("\n".join(lines) if lines else summary)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
