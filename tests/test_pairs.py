"""``scripts/pairs.py``'s verdict on one metric's parent (A) and change (B) runs."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "scripts", "pairs.py"))
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

LOWER = {"name": "op_ms_p50", "better": "lower", "bound": 0.1}
HIGHER = {"name": "samples_per_s", "better": "higher", "bound": 0.1}
# quartiles 95/100/105: an interquartile range of 10% of the median, at the bound
TIGHT = [90.0, 95.0, 95.0, 100.0, 100.0, 105.0, 105.0, 110.0]
# quartiles 80/100/120: 40% of the median, wider than the bound
BIMODAL = [70.0, 80.0, 80.0, 90.0, 110.0, 120.0, 120.0, 130.0]


def test_a_change_inside_the_bound_on_tight_runs_gets_no_mark():
    assert pairs.marks(TIGHT, [v * 1.05 for v in TIGHT], LOWER) == []
    assert pairs.marks(TIGHT, [v * 0.95 for v in TIGHT], HIGHER) == []


def test_a_median_past_the_bound_in_the_worse_direction_is_worse():
    assert pairs.marks(TIGHT, [v * 1.2 for v in TIGHT], LOWER) == ["WORSE"]
    assert pairs.marks(TIGHT, [v * 0.8 for v in TIGHT], HIGHER) == ["WORSE"]
    assert pairs.marks(TIGHT, [v * 1.2 for v in TIGHT], HIGHER) == []


def test_a_spread_wider_than_the_bound_leaves_an_unchanged_median_unresolved():
    assert pairs.marks(BIMODAL, list(BIMODAL), LOWER) == ["UNRESOLVED"]
    assert pairs.marks(BIMODAL, [v * 1.2 for v in BIMODAL], LOWER) == ["WORSE", "UNRESOLVED"]


def test_a_wide_spread_is_resolved_when_every_b_run_beats_every_a_run():
    assert pairs.marks(BIMODAL, [v - 61.0 for v in BIMODAL], LOWER) == []
    assert pairs.marks(BIMODAL, [v + 61.0 for v in BIMODAL], HIGHER) == []
    # one B run that does not beat A's best leaves it unresolved
    assert pairs.marks(BIMODAL, [v - 61.0 for v in BIMODAL[:-1]] + [70.0], LOWER) == ["UNRESOLVED"]


def test_the_summary_holds_each_metrics_quartiles_wins_change_bound_and_marks():
    runs = {"A": [{"op_ms_p50": a, "samples_per_s": 1000.0 / a} for a in BIMODAL],
            "B": [{"op_ms_p50": a * 1.2, "samples_per_s": 1000.0 / a} for a in BIMODAL]}
    got = pairs.summary([LOWER, HIGHER], runs, "ship", 3)
    assert (got["workload"], got["seed"], got["pairs"]) == ("ship", 3, 8)
    op = got["metrics"]["op_ms_p50"]
    assert op["a"] == [80.0, 100.0, 120.0] and op["b"] == [96.0, 120.0, 144.0]
    assert op["b_better"] == 0 and op["change"] == 0.2 and op["bound"] == 0.1
    assert op["marks"] == ["WORSE", "UNRESOLVED"]
    speed = got["metrics"]["samples_per_s"]
    assert speed["b_better"] == 0 and speed["change"] == 0.0 and speed["marks"] == ["UNRESOLVED"]
    assert list(got["metrics"]) == ["op_ms_p50", "samples_per_s"]
