"""``scripts/bench_pair.py``'s summary of paired runs: medians, quartiles, wins and bounds.

The script is loaded by path and its ``_summary`` fed synthetic runs, so no
benchmark runs here.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "runs_per_s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(wall_s, runs_per_s, failed=0, correct=True):
    return [{"metrics": {"wall_s": w, "runs_per_s": r}, "correct": correct, "failed": failed}
            for w, r in zip(wall_s, runs_per_s)]


def test_wins_count_the_better_direction_and_not_ties(bench_pair):
    # per metric, pair by pair: the change wins twice, ties once and loses once
    runs = {"parent": _runs([4.0, 4.0, 4.0, 4.0], [2.0, 2.0, 2.0, 2.0]),
            "change": _runs([3.0, 4.0, 5.0, 2.0], [3.0, 2.0, 1.0, 3.0])}
    out = bench_pair._summary(runs, METRICS)
    assert out["wins"] == {"wall_s": 2, "runs_per_s": 2}
    # with the sides swapped the parent wins once: the tied pair counts for neither side
    swapped = bench_pair._summary({"parent": runs["change"], "change": runs["parent"]}, METRICS)
    assert swapped["wins"] == {"wall_s": 1, "runs_per_s": 1}


def test_medians_quartiles_and_ratios(bench_pair):
    runs = {"parent": _runs([4.0, 4.0, 4.0, 4.0], [2.0, 2.0, 2.0, 2.0]),
            "change": _runs([3.0, 4.0, 5.0, 2.0], [3.0, 2.0, 1.0, 3.0], failed=1, correct=False)}
    out = bench_pair._summary(runs, METRICS)
    assert out["parent"] == {"wall_s": 4.0, "runs_per_s": 2.0, "correct": True, "failed": 0}
    assert out["change"] == {"wall_s": 3.5, "runs_per_s": 2.5, "correct": False, "failed": 4}
    assert out["quartiles"]["change"]["wall_s"] == [2.25, 3.5, 4.75]
    assert out["quartiles"]["parent"]["runs_per_s"] == [2.0, 2.0, 2.0]
    assert out["change_over_parent"] == {"wall_s": 0.875, "runs_per_s": 1.25}
    assert out["runs"] is runs


@pytest.mark.parametrize("change_wall,change_rate,within", [
    (5.0, 4.0, True),      # lower is better: 25% slower, exactly at the bound
    (4.0, 3.0, True),      # higher is better: 25% fewer, exactly at the bound
    (5.004, 4.0, False),   # just past the bound
    (4.0, 2.996, False),
    (2.0, 8.0, True),      # better by any margin
])
def test_within_bounds_at_and_past_a_bound(bench_pair, change_wall, change_rate, within):
    runs = {"parent": _runs([4.0] * 3, [4.0] * 3), "change": _runs([change_wall] * 3, [change_rate] * 3)}
    assert bench_pair._summary(runs, METRICS)["within_bounds"] is within
