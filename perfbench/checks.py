"""The correctness gate: which group sweeps of one verb run fail a check.

A sweep fails when any of these fails for it:

* the verb exited 0, its stdout parsed as one JSON report with no findings,
  and it reported exactly the planned groups, in order;
* census: no violations, one row per size in the range, and per-size orbit
  sums ``subsets`` equal to C(order, k); scan: no sufficiency failures;
* ``subsets_scanned`` equals the number of identity-containing masks in
  the size range;
* the isomorphism invariants of each report (see ``invariants``) equal the
  ones pinned for the seed-0 group in ``pinned.json``;
* when the input is the seed-0 input, the sha256 of stdout equals the
  pinned digest.

A failure of the run as a whole (exit code, parse, findings, digest) fails
every sweep in it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from math import comb
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def invariants(report: dict) -> list:
    """The part of one report that relabelling the group's elements keeps.

    Every count here is over translation orbits or subset sizes, so an
    isomorphic copy of the group must reproduce it exactly.
    """
    if "by_size" in report:
        return [report["order"], report["canonical_classes"],
                [[r["size"], r["min_quotient"], r["subsets"]]
                 for r in report["by_size"]]]
    return [report["order"], report["canonical_classes"], report["in_range"],
            report["witnesses_found"], len(report["counterexamples"]),
            report["sufficiency_checked"]]


def report_errors(report: dict) -> list[str]:
    """Checks on one group's report that need nothing but the report."""
    errors = []
    n = report["order"]
    if "by_size" in report:
        lo, hi = report["sizes"]["lo"], report["sizes"]["hi"]
        if report["violations"]:
            errors.append(f"{len(report['violations'])} violations")
        sizes = [row["size"] for row in report["by_size"]]
        if sizes != list(range(lo, hi + 1)):
            errors.append(f"size rows {sizes} do not cover {lo}..{hi}")
        for row in report["by_size"]:
            if row["subsets"] != comb(n, row["size"]):
                errors.append(f"size {row['size']}: {row['subsets']} subsets, "
                              f"C({n}, {row['size']}) = {comb(n, row['size'])}")
    else:
        lo, hi = 1, n
        if report["sufficiency_failures"]:
            errors.append(f"{len(report['sufficiency_failures'])} sufficiency failures")
    masks = sum(comb(n - 1, k - 1) for k in range(lo, hi + 1))
    if report["subsets_scanned"] != masks:
        errors.append(f"{report['subsets_scanned']} subsets scanned, "
                      f"{masks} identity-containing masks in {lo}..{hi}")
    return errors


def sweep_errors(rc: int, stdout: str, specs, pinned: dict,
                 check_digest: bool) -> list[list[str]]:
    """Per planned group, the messages of every check its sweep failed.

    ``pinned`` holds ``digest`` and ``invariants`` for the workload's seed-0
    input; the invariants are compared position by position, since a
    relabelled copy sits where its seed-0 group did.
    """
    run = []
    if rc != 0:
        run.append(f"exit code {rc}")
    if check_digest and digest(stdout) != pinned["digest"]:
        run.append(f"stdout sha256 {digest(stdout)[:12]} is not the pinned "
                   f"{pinned['digest'][:12]}")
    reports = []
    try:
        doc = json.loads(stdout)
        if doc["findings"]:
            run.append(f"{len(doc['findings'])} findings")
        reports = doc["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        run.append(f"stdout is not a report: {exc!r}")
    groups = [r.get("group") if isinstance(r, dict) else None for r in reports]
    if groups != list(specs):
        run.append(f"reported {len(groups)} groups, not the {len(specs)} planned")
        reports = []
    out = []
    for i in range(len(specs)):
        errors = list(run)
        if reports:
            try:
                errors += report_errors(reports[i])
                if invariants(reports[i]) != pinned["invariants"][i]:
                    errors.append("isomorphism invariants differ from the pinned ones")
            except (KeyError, TypeError) as exc:
                errors.append(f"malformed report: {exc!r}")
        out.append(errors)
    return out


class Gate:
    """Counts the group sweeps of a benchmark run and the ones that failed a check."""

    def __init__(self, specs, pinned: dict, check_digest: bool):
        self.specs = specs
        self.pinned = pinned
        self.check_digest = check_digest
        self.attempted = 0
        self.failed = 0

    def check(self, run, extra_error: str | None = None) -> None:
        """Check one verb run; ``None`` stands for a run that raised."""
        self.attempted += len(self.specs)
        if run is None:
            self.failed += len(self.specs)
            return
        per_group = sweep_errors(run.rc, run.stdout, self.specs, self.pinned,
                                 self.check_digest)
        for spec, errors in zip(self.specs, per_group):
            if extra_error:
                errors.append(extra_error)
            if errors:
                self.failed += 1
                print(f"verdict error in {spec[:60]}: {'; '.join(errors)}",
                      file=sys.stderr)
