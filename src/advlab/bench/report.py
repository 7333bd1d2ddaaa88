"""Experiment report rows and CSV/JSON emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from ..errors import IoError

# Methodology choices recorded at the top of every report.
DEVIATION_NOTES = (
    "grayscale conversion: unweighted channel mean",
    "perturbation percent: 100 * L2(adv - clean) / L2(clean)",
    "denoising inside pixel deflection: 3x3 median filter",
)


@dataclass
class ReportRow:
    row: str  # "clean" | "attack" | "defence"
    network: str
    attack: str | None = None
    defence: str | None = None
    trial: int = 0  # -1 marks the mean over trials
    clean_accuracy: float = math.nan
    accuracy_under_attack: float = math.nan
    roc_auc: float = math.nan
    pert_mean_percent: float = math.nan
    pert_worst_percent: float = math.nan
    seconds_per_sample: float = math.nan

    def __post_init__(self):
        if not math.isnan(self.pert_worst_percent) and not math.isnan(self.pert_mean_percent):
            assert self.pert_worst_percent >= self.pert_mean_percent - 1e-9
        if not math.isnan(self.seconds_per_sample):
            assert self.seconds_per_sample >= 0.0


COLUMNS = tuple(f.name for f in fields(ReportRow))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def emit_report(rows: list[ReportRow], fmt: str, out_path: str | Path) -> Path:
    """Write rows as CSV (with a commented header block) or JSON."""
    if not rows:
        raise IoError("refusing to write an empty report")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            for note in DEVIATION_NOTES:
                fh.write(f"# {note}\n")
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            for row in rows:
                record = asdict(row)
                writer.writerow([_cell(record[c]) for c in COLUMNS])
    elif fmt == "json":
        payload = {"notes": list(DEVIATION_NOTES), "rows": [asdict(r) for r in rows]}
        out_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return out_path


def load_report_json(path: str | Path) -> list[ReportRow]:
    payload = json.loads(Path(path).read_text())
    return [ReportRow(**{k: v for k, v in row.items()}) for row in payload["rows"]]
