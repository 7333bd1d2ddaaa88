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


def test_config_that_parses_differently_or_in_one_dump_only_is_named():
    a = {"configs/x.ini": "ExperimentConfig(name='x')", "configs/y.ini": "ExperimentConfig(name='y')"}
    assert rows_equal.diff_configs(a, dict(a)) == []
    b = {"configs/x.ini": "ExperimentConfig(name='x2')", "configs/z.ini": "ExperimentConfig(name='z')"}
    assert rows_equal.diff_configs(a, b) == [
        "config file configs/y.ini in one dump only",
        "config file configs/z.ini in one dump only",
        "config file configs/x.ini parses differently",
    ]


def test_parsed_configs_cover_both_config_directories():
    parsed = rows_equal.parsed_configs()
    dirs = {Path(path).parent.as_posix() for path in parsed}
    assert dirs == {"configs", "perfbench/configs"}
    assert {"configs/ordering.ini", "perfbench/configs/defend.ini"} <= parsed.keys()
    assert all(text.startswith("ExperimentConfig(") for text in parsed.values())
