"""A/B driver for the sweep benchmark: alternating pairs of perfbench runs
of two git revisions, written as a ``BENCH_*.json`` file.

Run from the root of a quotset checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --note "what the change does" --series 0:10 --series 7:2 \\
        --workdir ../bench-trees --out BENCH_N.json

Each revision is unpacked with ``git archive`` into its own directory under
``--workdir``, and ``perfbench/run.py --trace 0`` runs there, in a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1.  A series is a seed and a
number of rounds.  Every round runs each workload ``BENCHMARK.json`` lists
once per side, in the order it lists them, with the parent first in odd
rounds and the change first in even ones, so that a drift in the host's
speed does not favour one side.  Every run lasts ``BENCHMARK.json``'s
``run_seconds``.  The output file is rewritten after every run, so an
interrupted series keeps the runs it finished.

The summary of a series (``summarize``) gives, per workload and end-to-end
metric: each side's median and quartiles (``statistics.quantiles``, n=4),
the pairs in which the change is better, the relative change of the
medians, and the median per-pair ratio change/parent.  Which direction is
better comes from ``BENCHMARK.json``, and so does each metric's bound, which
the verdicts read:

* ``gain_shown``: the change is better in at least 9/10 of the pairs, and
  its median is better than the parent's by more than the parent's q3 - q1.
* ``vs_bound``: "worse" when the change's median is worse than the
  parent's by more than the bound (a share of the parent's median);
  otherwise "unresolved" when the parent's q3 - q1 exceeds that share,
  unless every change run is better than every parent run; otherwise
  "within".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_COMMAND = ("python3 perfbench/run.py --workload W --seed S "
               "--seconds {seconds:g} --trace 0")


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _value(result: dict | None, metric: str) -> float | None:
    if result is None or metric not in result["metrics"]:
        return None
    return result["metrics"][metric]["value"]


def _verdicts(parent: list[float], change: list[float], wins: int,
              direction: str, bound: float) -> dict:
    """``gain_shown`` and ``vs_bound`` of one metric, as the module
    docstring defines them, for paired runs in which the change won
    ``wins``."""
    p = _quartiles(parent)
    spread = p["q3"] - p["q1"]
    if direction == "lower":
        gain = p["median"] - statistics.median(change)
        all_better = max(change) < min(parent)
    else:
        gain = statistics.median(change) - p["median"]
        all_better = min(change) > max(parent)
    if -gain > bound * p["median"]:
        vs_bound = "worse"
    elif spread > bound * p["median"] and not all_better:
        vs_bound = "unresolved"
    else:
        vs_bound = "within"
    return {"gain_shown": 10 * wins >= 9 * len(parent) and gain > spread,
            "vs_bound": vs_bound}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload, in order of first appearance: for each metric in
    ``better`` ("lower" or "higher"), both sides' medians and quartiles and
    the pairwise comparison, plus whether every run of the workload read
    ``correct: true`` and ``failed: 0``.  With ``bounds``, which maps each
    metric to its ``BENCHMARK.json`` bound, every metric also gets the
    verdicts ``gain_shown`` and ``vs_bound``.

    A run entry is ``{"round", "workload", "side", "result"}``, with side
    "parent" or "change" and result the run's JSON line, or None if it
    printed none.  A pair is the two sides' runs of one round.
    """
    by_workload: dict[str, dict[int, dict]] = {}
    for run in runs:
        rounds = by_workload.setdefault(run["workload"], {})
        rounds.setdefault(run["round"], {})[run["side"]] = run["result"]
    summary = {}
    for workload, rounds in by_workload.items():
        results = [r for sides in rounds.values() for r in sides.values()]
        entry = {}
        for metric, direction in better.items():
            pairs = [(_value(sides.get("parent"), metric),
                      _value(sides.get("change"), metric))
                     for _, sides in sorted(rounds.items())]
            pairs = [pair for pair in pairs if None not in pair]
            if not pairs:
                continue
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            wins = sum(c < p if direction == "lower" else c > p for p, c in pairs)
            entry[metric] = {
                "parent": _quartiles(parent),
                "change": _quartiles(change),
                "change_better_in_pairs": f"{wins}/{len(pairs)}",
                "median_change": (statistics.median(change)
                                  / statistics.median(parent) - 1),
                "median_pair_ratio": statistics.median(c / p for p, c in pairs),
            }
            if bounds is not None:
                entry[metric].update(_verdicts(parent, change, wins, direction,
                                               bounds[metric]))
        entry["all_correct_and_none_failed"] = all(
            r is not None and r["correct"] and r["failed"] == 0 for r in results)
        summary[workload] = entry
    return summary


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(sha: str, workdir: Path) -> Path:
    """The tree of ``sha`` from ``git archive``, unpacked under ``workdir``."""
    path = workdir / sha
    if not (path / "perfbench" / "run.py").is_file():
        path.mkdir(parents=True, exist_ok=True)
        tar = subprocess.run(["git", "archive", sha], check=True,
                             capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(path)], input=tar, check=True)
    return path


def _run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last stdout line of one perfbench run, parsed, or None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def _series_arg(text: str) -> tuple[int, int]:
    try:
        seed, rounds = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected SEED:ROUNDS, got {text!r}")
    if rounds < 1:
        raise argparse.ArgumentTypeError(f"rounds must be at least 1, got {text!r}")
    return seed, rounds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, metavar="REV")
    p.add_argument("--change", required=True, metavar="REV")
    p.add_argument("--note", required=True,
                   help="what the change does, recorded under 'changes'")
    p.add_argument("--series", type=_series_arg, action="append", required=True,
                   metavar="SEED:ROUNDS", help="a seed and its number of rounds")
    p.add_argument("--workdir", type=Path, required=True,
                   help="where the two revisions are unpacked")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = (_git("rev-parse", f"{rev}^{{commit}}")
                      for rev in (args.parent, args.change))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    trees = {"parent": _unpack(parent, args.workdir),
             "change": _unpack(change, args.workdir)}
    doc = {
        "command": RUN_COMMAND.format(seconds=seconds),
        "driver": "python3 tools/bench_pairs.py " + " ".join(
            f"--series {seed}:{rounds}" for seed, rounds in args.series),
        "parent": parent,
        "changes": {change: args.note},
        "host": (f"{os.cpu_count()}-core {platform.system()}, Python "
                 f"{platform.python_version()} with PYTHONDONTWRITEBYTECODE=1; "
                 "each side runs from a git archive of its revision"),
        "protocol": (
            "each run entry holds the last stdout line of one perfbench run "
            "(null if it printed none); rounds alternate which side runs first "
            "(the parent in odd rounds); series 'all' runs the workloads "
            f"BENCHMARK.json lists, {', '.join(workloads)}, in that order "
            "every round; summaries give per-side medians and quartiles "
            "(statistics.quantiles, n=4), "
            "the pairs in which the change is better, the relative change of "
            "the medians, the median per-pair ratio change/parent, and the "
            "verdicts gain_shown (better in at least 9/10 of pairs and by "
            "more than the parent's q3 - q1) and vs_bound (worse, unresolved "
            "or within the metric's bound in BENCHMARK.json)"),
        "series": [],
    }
    for seed, rounds in args.series:
        series = {"change": change, "name": "all", "seed": seed, "rounds": rounds,
                  "summary": {}, "runs": []}
        doc["series"].append(series)
        for rnd in range(1, rounds + 1):
            sides = ("parent", "change") if rnd % 2 else ("change", "parent")
            for workload in workloads:
                for side in sides:
                    result = _run_once(trees[side], workload, seed, seconds)
                    series["runs"].append({"round": rnd, "seed": seed,
                                           "workload": workload, "side": side,
                                           "result": result})
                    series["summary"] = summarize(series["runs"], better, bounds)
                    args.out.write_text(json.dumps(doc, indent=1) + "\n",
                                        encoding="utf-8")
                    wall = _value(result, "wall_s")
                    print(f"seed {seed} round {rnd} {workload} {side}: "
                          f"wall_s {wall}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
