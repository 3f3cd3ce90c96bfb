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
