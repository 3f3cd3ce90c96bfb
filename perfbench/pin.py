"""Rewrite ``pinned.json`` from the current program's seed-0 reports.

Run from the root of a quotset checkout, only when a report change is
deliberate:

    python3 perfbench/pin.py

For each workload it runs the verb once on the seed-0 input and records the
sha256 of stdout and the isomorphism invariants of every group's report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import checks, run, workloads

    pinned = {}
    for name, w in workloads.WORKLOADS.items():
        plan = workloads.plan(name, 0)
        result = run.run_verb(plan.argv(w.jobs, run.write_groups_file(plan)))
        if result.rc != 0:
            print(f"error: {name} exited {result.rc}", file=sys.stderr)
            return 1
        doc = json.loads(result.stdout)
        pinned[name] = {"digest": checks.digest(result.stdout),
                        "invariants": [checks.invariants(r) for r in doc["reports"]]}
        print(f"{name}: sha256 {pinned[name]['digest'][:12]}")
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
