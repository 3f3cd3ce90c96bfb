"""Sweep benchmark for quotset: end-to-end and per-layer metrics of the two
sweep verbs, run the way a user runs them.

Run from the root of a quotset checkout:

    python3 perfbench/run.py --workload census-deep --seed 0 --seconds 40 --trace 0

Each run calls ``quotset.cli.main`` in this process with the verb's argv,
captures stdout and checks it (see ``checks.py``).  Timings never come from
stdout.

``--trace 0`` measures the end-to-end metrics for ``--seconds``: the verb
is repeated, with cold set-ups of every group interleaved, and each metric
is reported as a median.  ``--trace 1`` runs the verb once untraced
at jobs 1, once untraced at jobs 2, and once at jobs 1 with every function
in ``layers.TRACED`` wrapped; it then unwraps them, writes the spans under
``.perfbench/`` and reports the per-layer metrics.  Spans are taken at jobs
1 because spans recorded in forked workers never reach this process.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` count group sweeps and the sweeps that failed a check (the
verdict errors); ``metrics`` maps each metric name to its value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

OUT_DIR = Path(".perfbench")

#: Cold set-ups take this share of a timed run, interleaved with the verb
#: runs so that they sample the same stretch of time; at least
#: SETUP_MIN_REPS are made, and their median is reported.
SETUP_SHARE = 0.05
SETUP_MIN_REPS = 9

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "masks_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class VerbRun:
    rc: int
    stdout: str
    wall_s: float
    sweep_s: float   # seconds inside classification_census / structure_scan
    masks: int       # subsets_scanned over all groups


def run_verb(argv: list[str]) -> VerbRun:
    """Run ``quotset.cli.main(argv)`` with stdout and stderr captured.

    The sweep entry points as ``cli`` binds them are tapped for the reports
    they return, whose ``runtime_seconds`` and ``subsets_scanned`` give the
    sweep time and mask count; the tap times nothing itself.
    """
    cli = importlib.import_module("quotset.cli")
    sweeps = []
    names = ("classification_census", "structure_scan")
    originals = {name: vars(cli)[name] for name in names}

    def tapped(fn):
        def sweep(*args, **kwargs):
            report = fn(*args, **kwargs)
            sweeps.append((report.runtime_seconds, report.subsets_scanned))
            return report
        return sweep

    out, err = io.StringIO(), io.StringIO()
    for name, fn in originals.items():
        setattr(cli, name, tapped(fn))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return VerbRun(rc, out.getvalue(), wall,
                   sum(s for s, _ in sweeps), sum(m for _, m in sweeps))


def cold_setup_seconds(specs) -> float:
    """Seconds to build every group, its action tables and its subgroups, cold."""
    from quotset.groups import build_group
    from quotset.subgroups import all_subgroups
    start = time.perf_counter()
    for spec in specs:
        G = build_group(spec)
        G.action_tables()
        all_subgroups(G)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def guarded(argv) -> VerbRun | None:
    try:
        return run_verb(argv)
    except Exception:
        traceback.print_exc()
        return None


def timed(plan, argv, seconds: float, gate) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    setup = []
    runs = []
    while True:
        while not setup or sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
            setup.append(cold_setup_seconds(plan.specs))
        run = guarded(argv)
        gate.check(run)
        if run is None or not run.sweep_s:
            break
        runs.append(run)
        walls = [r.wall_s for r in runs]
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    if not runs:
        return {}
    while len(setup) < SETUP_MIN_REPS:
        setup.append(cold_setup_seconds(plan.specs))
    print(f"{len(setup)} cold set-ups; {len(runs)} verb runs, wall s: "
          + " ".join(f"{r.wall_s:.3f}" for r in runs), file=sys.stderr)
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "masks_per_s": statistics.median(r.masks / r.sweep_s for r in runs),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(plan, groups_file, gate) -> dict:
    from perfbench import layers
    jobs1 = guarded(plan.argv(1, groups_file))
    jobs2 = guarded(plan.argv(2, groups_file))
    trace = layers.LayerTrace()
    trace.install()
    try:
        run = guarded(plan.argv(1, groups_file))
    finally:
        trace.uninstall()
    runs = (jobs1, jobs2, run)
    same = None not in runs and len({r.stdout for r in runs}) == 1
    for r in runs:
        gate.check(r, None if same else "reports differ across jobs 1, jobs 2 and traced")
    if None in runs or not jobs2.sweep_s:
        return {}
    print(f"determinism: jobs 1, jobs 2 and traced reports "
          f"{'byte-identical' if same else 'DIFFER'}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{plan.workload.name}-seed{plan.seed}.tsv"
    trace.recorder.write_tsv(spans_path)
    print(f"{len(trace.recorder)} spans written to {spans_path}", file=sys.stderr)
    return trace.metrics(
        parallel_efficiency=jobs1.sweep_s / (2 * jobs2.sweep_s),
        overhead_s=run.wall_s - jobs1.wall_s)


def write_groups_file(plan) -> str | None:
    """Write the plan's groups file under ``OUT_DIR`` if its verb needs one."""
    if plan.workload.groups is None or len(plan.specs) == 1:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"groups-{plan.workload.name}-seed{plan.seed}.txt"
    path.write_text("".join(spec + "\n" for spec in plan.specs), encoding="utf-8")
    return str(path)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "quotset" / "cli.py").is_file():
        print("error: no src/quotset here; run from the root of a quotset checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import checks, layers, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    plan = workloads.plan(args.workload, args.seed)
    groups_file = write_groups_file(plan)
    gate = checks.Gate(plan.specs, checks.load_pinned()[plan.workload.name],
                       plan.is_seed_zero_input)

    if args.trace:
        values = traced(plan, groups_file, gate)
        units = layers.METRICS
    else:
        values = timed(plan, plan.argv(plan.workload.jobs, groups_file),
                       args.seconds, gate)
        units = E2E_UNITS

    print(f"workload {plan.workload.name}, seed {plan.seed}, "
          f"{len(plan.specs)} groups, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    print(f"  {'verdict_errors':<30} {gate.failed:>16} of {gate.attempted} sweeps")
    result = {
        "correct": gate.failed == 0 and bool(values),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
