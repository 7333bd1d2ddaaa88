"""benchmarks/rows_equal.py's diff on synthetic dumps."""

import importlib.util
import math
from pathlib import Path

ROWS_EQUAL_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "rows_equal.py"
_spec = importlib.util.spec_from_file_location("rows_equal", ROWS_EQUAL_PY)
rows_equal = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rows_equal)

ROW = {"row": "attack", "attack": "fgsm", "trial": 0, "accuracy_under_attack": 0.5, "pert_mean_percent": math.nan}


def test_equal_dumps_with_nan_cells_do_not_differ():
    assert rows_equal.diff({"attack": [ROW, dict(ROW, trial=-1)]}, {"attack": [dict(ROW), dict(ROW, trial=-1)]}) == []


def test_one_ulp_apart_is_a_difference():
    other = dict(ROW, accuracy_under_attack=math.nextafter(0.5, 1.0))
    [line] = rows_equal.diff({"attack": [ROW]}, {"attack": [other]})
    assert line.startswith("attack row 0 accuracy_under_attack: 0.5 vs 0.50000000000")


def test_row_counts_and_missing_configs_are_reported():
    lines = rows_equal.diff({"attack": [ROW], "train": []}, {"attack": [ROW, ROW]})
    assert lines == ["config train in one dump only", "attack: 1 rows vs 2"]
