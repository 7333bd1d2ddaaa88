"""benchmarks/pairs.py's summary verdicts on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", PAIRS_PY)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = {
    "items_per_s": {"name": "items_per_s", "better": "higher", "bound": 0.25},
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
}


def make_pairs(parent_items, change_items):
    """Pairs whose wall time is the reciprocal of the item rate."""

    def run(items):
        return {"metrics": {"items_per_s": {"value": items}, "wall_s": {"value": 1.0 / items}}}

    return [{"seed": i, "parent": run(p), "change": run(c)} for i, (p, c) in enumerate(zip(parent_items, change_items))]


def test_reads_every_end_to_end_metric_of_the_benchmark():
    metrics = pairs.end_to_end_metrics()
    assert {"items_per_s", "wall_s", "setup_s", "peak_rss_mb", "fidelity", "ok_ratio"} <= set(metrics)
    assert all(m["better"] in ("higher", "lower") and m["bound"] > 0 for m in metrics.values())


def test_clear_gain_is_claimable():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    summary = pairs.summarise(make_pairs(parent, [p * 1.3 for p in parent]), METRICS)
    assert summary["change_wins"] == {"items_per_s": 10, "wall_s": 10}
    assert summary["claimable"] == {"items_per_s": True, "wall_s": True}
    assert summary["beyond_bound"] == {"items_per_s": False, "wall_s": False}


def test_one_loss_in_ten_still_claims_but_two_do_not():
    parent = [100.0] * 10
    one = [130.0] * 9 + [99.0]
    assert pairs.summarise(make_pairs(parent, one), METRICS)["claimable"]["items_per_s"]
    two = [130.0] * 8 + [99.0] * 2
    assert not pairs.summarise(make_pairs(parent, two), METRICS)["claimable"]["items_per_s"]


def test_gain_inside_the_parent_spread_is_not_claimable():
    parent = [80, 120, 90, 110, 85, 115, 95, 105, 100, 100]
    summary = pairs.summarise(make_pairs(parent, [p + 5 for p in parent]), METRICS)
    assert summary["change_wins"]["items_per_s"] == 10
    assert not summary["claimable"]["items_per_s"]


def test_fewer_than_ten_pairs_never_claim():
    summary = pairs.summarise(make_pairs([100] * 9, [200] * 9), METRICS)
    assert summary["change_wins"]["items_per_s"] == 9
    assert not summary["claimable"]["items_per_s"]


# wall_s is 1/items: a rate 22% lower is a wall 28% longer, past its bound.
@pytest.mark.parametrize(
    "factor, items_beyond, wall_beyond", [(0.9, False, False), (0.78, False, True), (0.7, True, True), (1.5, False, False)]
)
def test_beyond_bound_is_relative_to_the_parent_median(factor, items_beyond, wall_beyond):
    parent = [100.0] * 6
    summary = pairs.summarise(make_pairs(parent, [p * factor for p in parent]), METRICS)
    assert summary["beyond_bound"] == {"items_per_s": items_beyond, "wall_s": wall_beyond}


# Parent quartiles 70-130 around a median of 100: a spread of 60%, past the 25% bound.
WIDE_PARENT = [60, 70, 70, 70, 100, 100, 130, 130, 130, 140]


@pytest.mark.parametrize(
    "parent, change, unresolved",
    [
        (WIDE_PARENT, [p * 1.05 for p in WIDE_PARENT], True),
        (WIDE_PARENT, [p * 0.8 for p in WIDE_PARENT], True),
        (WIDE_PARENT, [150.0] * 10, False),  # every change run beats every parent run
        ([98, 99, 100, 100, 101, 102] * 2, [80.0] * 12, False),  # narrow spread: the bound decides
    ],
)
def test_spread_wider_than_the_bound_is_unresolved(parent, change, unresolved):
    summary = pairs.summarise(make_pairs(parent, change), METRICS)
    assert summary["unresolved"]["items_per_s"] is unresolved
    # wall_s = 1/items: beating every parent rate means a shorter wall than every parent run too.
    assert summary["unresolved"]["wall_s"] is unresolved


def test_verdict_lines_name_every_verdict():
    summary = pairs.summarise(make_pairs([100] * 10, [70] * 10), METRICS)
    lines = pairs.verdicts("train", summary)
    assert len(lines) == 2
    assert lines[0].startswith("train items_per_s: median 100 -> 70")
    assert "claimable no, beyond bound YES, unresolved no" in lines[0]
