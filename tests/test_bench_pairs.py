"""The summary of the A/B benchmark driver, ``tools/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "masks_per_s": "higher"}


def _run(rnd, side, wall, masks, workload="scan-n3", correct=True):
    return {"round": rnd, "seed": 0, "workload": workload, "side": side,
            "result": {"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "masks_per_s": {"value": masks, "unit": "1/s"}}}}


def test_summary_pairs_each_round_and_reads_the_better_direction():
    runs = [_run(1, "parent", 1.0, 100.0), _run(1, "change", 0.5, 200.0),
            _run(2, "change", 0.6, 150.0), _run(2, "parent", 0.9, 160.0),
            _run(3, "parent", 1.2, 80.0), _run(3, "change", 0.7, 120.0)]
    wall = bench_pairs.summarize(runs, BETTER)["scan-n3"]["wall_s"]
    assert wall["parent"]["median"] == 1.0 and wall["parent"]["n"] == 3
    assert wall["change"]["median"] == 0.6
    assert wall["change_better_in_pairs"] == "3/3"
    assert wall["median_change"] == pytest.approx(-0.4)
    assert wall["median_pair_ratio"] == pytest.approx(0.7 / 1.2)  # of 0.5, 0.67, 0.58
    masks = bench_pairs.summarize(runs, BETTER)["scan-n3"]["masks_per_s"]
    assert masks["change_better_in_pairs"] == "2/3"  # round 2: 150 < 160


def test_summary_flags_a_failed_or_missing_run_and_skips_its_pair():
    runs = [_run(1, "parent", 1.0, 100.0), _run(1, "change", 0.5, 200.0),
            _run(2, "change", 0.6, 150.0),
            {"round": 2, "seed": 0, "workload": "scan-n3", "side": "parent",
             "result": None},
            _run(1, "parent", 2.0, 10.0, workload="census-deep", correct=False),
            _run(1, "change", 2.0, 10.0, workload="census-deep")]
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["scan-n3", "census-deep"]
    assert summary["scan-n3"]["wall_s"]["change_better_in_pairs"] == "1/1"
    assert summary["scan-n3"]["wall_s"]["parent"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
    assert not summary["scan-n3"]["all_correct_and_none_failed"]
    assert not summary["census-deep"]["all_correct_and_none_failed"]
    assert summary["census-deep"]["wall_s"]["change_better_in_pairs"] == "0/1"


def test_summary_reproduces_a_committed_benchmark_file():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with open(ROOT / "BENCH_11.json", encoding="utf-8") as fh:
        series = json.load(fh)["series"]
    for s in series:
        assert bench_pairs.summarize(s["runs"], better) == s["summary"], s["seed"]


def _paired(parent_walls, change_walls):
    runs = []
    for rnd, (p, c) in enumerate(zip(parent_walls, change_walls), start=1):
        runs += [_run(rnd, "parent", p, 1 / p), _run(rnd, "change", c, 1 / c)]
    return runs


BOUNDS = {"wall_s": 0.25, "masks_per_s": 0.25}


def test_verdicts_show_a_gain_only_past_nine_tenths_and_the_spread():
    # ten pairs, the change better in every one and by far more than the
    # parent's q3 - q1: a gain, and within the bound on both metrics
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    change = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 0.81, 0.79]
    summary = bench_pairs.summarize(_paired(parent, change), BETTER, BOUNDS)["scan-n3"]
    for metric in ("wall_s", "masks_per_s"):
        assert summary[metric]["gain_shown"], metric
        assert summary[metric]["vs_bound"] == "within", metric
    # one pair lost of ten still shows the gain; two lost do not
    change[0] = 1.5
    summary = bench_pairs.summarize(_paired(parent, change), BETTER, BOUNDS)["scan-n3"]
    assert summary["wall_s"]["change_better_in_pairs"] == "9/10"
    assert summary["wall_s"]["gain_shown"]
    change[1] = 1.5
    summary = bench_pairs.summarize(_paired(parent, change), BETTER, BOUNDS)["scan-n3"]
    assert not summary["wall_s"]["gain_shown"]
    # winning every pair by less than the parent's spread is no gain either
    close = [p - 0.001 for p in parent]
    summary = bench_pairs.summarize(_paired(parent, close), BETTER, BOUNDS)["scan-n3"]
    assert summary["wall_s"]["change_better_in_pairs"] == "10/10"
    assert not summary["wall_s"]["gain_shown"]
    assert summary["wall_s"]["vs_bound"] == "within"
    # and without bounds the summary carries no verdict
    assert "gain_shown" not in bench_pairs.summarize(
        _paired(parent, change), BETTER)["scan-n3"]["wall_s"]


def test_verdict_worse_past_the_bound():
    # the change's median wall time is 30% above the parent's, past the
    # 25% bound; its masks per second fall by 23%, inside the bound
    parent = [1.00, 1.01, 0.99, 1.00]
    change = [1.30, 1.31, 1.29, 1.30]
    summary = bench_pairs.summarize(_paired(parent, change), BETTER, BOUNDS)["scan-n3"]
    assert summary["wall_s"]["vs_bound"] == "worse"
    assert summary["masks_per_s"]["vs_bound"] == "within"
    assert not summary["wall_s"]["gain_shown"]


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    # the parent's q3 - q1 is over 25% of its median, so a change that is
    # not worse by the bound is still not shown to be within it ...
    parent = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]
    change = [1.1, 0.9, 1.0, 1.2, 0.8, 1.05]
    summary = bench_pairs.summarize(_paired(parent, change), BETTER, BOUNDS)["scan-n3"]
    assert summary["wall_s"]["vs_bound"] == "unresolved"
    # ... unless every change run is better than every parent run
    faster = [0.5, 0.45, 0.55, 0.5, 0.52, 0.48]
    summary = bench_pairs.summarize(_paired(parent, faster), BETTER, BOUNDS)["scan-n3"]
    assert summary["wall_s"]["vs_bound"] == "within"
    assert summary["masks_per_s"]["vs_bound"] == "within"
