"""Command-line interface: classify, census, conjecture-scan, construct-extremal,
check-lemmas, and catalog.

Findings (violations, counterexample candidates, failed checks) go to standard
output as part of the report; progress and timing go to standard error.  Exit
status 0 means the command completed with no findings, 1 means it completed
and the findings list is nonempty, and 2 means a usage or input error.

Text and JSON renderings of a report carry the same information, and JSON is
rendered with sorted keys so identical inputs produce identical bytes for any
job count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .census import (
    check_sizes,
    check_sweep_cap,
    classification_census,
    structure_scan,
)
from .classify import (
    ClassKind,
    classify,
    construct_threshold_example,
    verify_structure,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    TABLE_ORDER_CAP,
    GroupSpecError,
    build_group,
    catalog_entries,
    parse_spec_lines,
    spec_names,
    spec_order,
    verify_group_axioms,
)
from .setops import ElemSet, check_counting_bounds, parse_set_literal
from .subgroups import (
    DEFAULT_SUBGROUP_CAP,
    all_subgroups,
    check_coset_laws,
    ensure_subgroup,
)

__all__ = ["main"]


def _sizes_arg(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a size range like 2..5 or a single size, got {text!r}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad size range {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotset",
        description="Quotient sets A^-1 A in finite groups: classification, "
                    "exhaustive census, and structure scans.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output rendering (default text)")
        p.add_argument("--output", metavar="PATH",
                       help="also write the rendered report to this file")

    def group_selection(p):
        sel = p.add_mutually_exclusive_group(required=True)
        sel.add_argument("--group", metavar="SPEC", help="a single group spec")
        sel.add_argument("--groups-file", metavar="PATH",
                         help="file with one group spec per line, # comments")
        sel.add_argument("--max-order", type=int, metavar="N",
                         help="every catalog group of order at most N")

    def sweep_limits(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N")
        p.add_argument("--i-know-this-is-big", action="store_true",
                       dest="allow_big",
                       help="allow sweeps past the default order cap")

    p = sub.add_parser("classify", help="classify one set by its quotient set")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--set", required=True, metavar="LITERAL",
                   help="set literal such as '{0, 4, 8}'")
    common(p)

    p = sub.add_parser("census",
                       help="exhaustively verify the classification over a group")
    group_selection(p)
    p.add_argument("--sizes", type=_sizes_arg, metavar="A..B",
                   help="restrict to set sizes in this range (default: all)")
    sweep_limits(p)
    common(p)

    p = sub.add_parser("conjecture-scan",
                       help="scan for bounded-representative structure witnesses")
    group_selection(p)
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="representative bound; the in-range test is "
                        "(N+1)|Q| < (2N+1)|A|")
    sweep_limits(p)
    common(p)

    p = sub.add_parser("construct-extremal",
                       help="build the three-coset set with quotient ratio exactly 5/3")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--subgroup", required=True, metavar="LITERAL")
    p.add_argument("--g", type=int, required=True, metavar="ID",
                   help="element id that normalizes the subgroup")
    common(p)

    p = sub.add_parser("check-lemmas",
                       help="verify the group axioms and the coset laws")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--subgroup", metavar="LITERAL",
                   help="check only this subgroup (default: all subgroups)")
    p.add_argument("--box-trials", type=int, default=0, metavar="N",
                   help="run N random counting-bound trials")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="seed for the random trials (default 0)")
    common(p)

    p = sub.add_parser("catalog",
                       help="list catalog groups, or the id/name map of one group")
    p.add_argument("--max-order", type=int, default=24, metavar="N")
    p.add_argument("--group", metavar="SPEC",
                   help="print the element id/name map of this group instead")
    common(p)

    return parser


def _catalog(max_order: int) -> list[tuple[int, str]]:
    """The catalog up to ``max_order``, refused below order 1, where it
    would select no group, and past ``build_group``'s cap."""
    if max_order < 1:
        raise ValueError(f"--max-order must be at least 1, got {max_order}")
    if max_order > DEFAULT_ORDER_CAP:
        raise ValueError(f"--max-order {max_order} exceeds the group order cap "
                         f"{DEFAULT_ORDER_CAP}")
    return catalog_entries(max_order)


def _sweep_specs(args, sizes=None) -> list[str]:
    """The selected specs, each checked by its order against the caps and
    any ``--sizes`` range before any group is built, so a group that would
    fail fails the command before any table is built or any sweep runs.
    With ``--sizes`` the catalog leaves out the groups whose order is below
    the range's upper end."""
    if args.group is not None:
        specs = [args.group]
    elif args.groups_file is not None:
        with open(args.groups_file, encoding="utf-8") as fh:
            specs = parse_spec_lines(fh.read())
        if not specs:
            raise ValueError(f"no group specs found in {args.groups_file}")
    else:
        entries = _catalog(args.max_order)
        if sizes is not None:
            entries = [(order, spec) for order, spec in entries if order >= sizes[1]]
            if not entries:
                raise ValueError(f"no catalog group of order at most "
                                 f"{args.max_order} holds sets of size {sizes[1]}")
        specs = [spec for _, spec in entries]
    for spec in specs:
        order = spec_order(spec)
        check_sweep_cap(order, args.allow_big)
        check_sizes(order, sizes)
    return specs


def _build_tabled(spec: str, enumerates: bool = False):
    """``build_group(spec)`` for a verb that needs the group's action tables,
    and with ``enumerates`` its subgroups: a spec whose order is past the
    table cap, or the subgroup cap, is refused by its order before any
    table is built, with the message the cap gives."""
    order = spec_order(spec)
    if enumerates and order > DEFAULT_SUBGROUP_CAP:
        raise ValueError(f"subgroup enumeration over order {order} "
                         f"exceeds the cap {DEFAULT_SUBGROUP_CAP}")
    if order > TABLE_ORDER_CAP:
        raise ValueError(f"order {order} exceeds the action-table cap {TABLE_ORDER_CAP}")
    return build_group(spec)


def _check_output(path: str) -> None:
    """Refuse an ``--output`` PATH that is a directory or whose parent is
    not an existing directory, so that no sweep runs only to fail the
    write."""
    if os.path.isdir(path):
        raise ValueError(f"--output {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--output {path}: {parent} is not an existing directory")


def _replay(spec: str, s: ElemSet) -> str:
    return f'("{spec}", "{s.literal()}")'


# ---------------------------------------------------------------------------
# verb handlers: each returns (document, findings)


def _run_classify(args):
    G = _build_tabled(args.group)
    A = parse_set_literal(args.set, G.order)
    result = classify(G, A)
    three_q, five_a = result.ratio_check()
    findings = []
    structure = None
    if result.kind is ClassKind.VIOLATION:
        findings.append(
            f"{_replay(G.spec, A)} necessity: 3|Q| = {three_q} is below "
            f"5|A| = {five_a} but neither coset picture applies")
    elif result.kind is not ClassKind.NOT_SMALL:
        structure = verify_structure(G, A, result)
        for item in structure.failures():
            findings.append(f"{_replay(G.spec, A)} structure: {item.name}"
                            + (f" ({item.detail})" if item.detail else ""))
    doc = {
        "command": "classify",
        "group": G.spec,
        "order": G.order,
        "set": list(A),
        "set_size": A.size,
        "quotient": list(result.quotient),
        "quotient_size": result.quotient_size,
        "ratio_check": {"three_q": three_q, "five_a": five_a,
                        "small": result.small},
        "kind": result.kind.value,
        "subgroup": list(result.subgroup.elements) if result.subgroup else None,
        "rep_a": result.rep_a,
        "rep_b": result.rep_b,
        "fused_window": result.fused,
        "structure_checks": structure.to_dict() if structure else None,
        "findings": findings,
    }
    return doc, findings


def _run_census(args):
    findings = []
    reports = []
    for spec in _sweep_specs(args, args.sizes):
        G = build_group(spec)
        report = classification_census(G, sizes=args.sizes, jobs=args.jobs,
                                       allow_big=args.allow_big)
        print(f"census {G.spec}: {report.subsets_scanned} subsets in "
              f"{report.runtime_seconds:.2f}s", file=sys.stderr)
        reports.append(report.to_dict())
        for v in report.violations:
            findings.append(f"{_replay(G.spec, v.subset)} {v.kind}: {v.detail}")
    doc = {"command": "census", "reports": reports, "findings": findings}
    return doc, findings


def _run_conjecture_scan(args):
    findings = []
    reports = []
    for spec in _sweep_specs(args):
        G = build_group(spec)
        report = structure_scan(G, args.n, jobs=args.jobs,
                                allow_big=args.allow_big)
        print(f"conjecture-scan {G.spec}: {report.subsets_scanned} subsets in "
              f"{report.runtime_seconds:.2f}s", file=sys.stderr)
        reports.append(report.to_dict())
        if report.fatal:
            for c in report.counterexamples:
                findings.append(
                    f"{_replay(G.spec, c)} no structure witness at n = {args.n}")
        for c in report.sufficiency_failures:
            findings.append(
                f"{_replay(G.spec, c)} witness hypotheses hold and "
                f"|Q| < 2|A| but the quotient set is not in range")
    doc = {"command": "conjecture-scan", "max_reps": args.n,
           "reports": reports, "findings": findings}
    return doc, findings


def _run_construct_extremal(args):
    G = _build_tabled(args.group)
    H = ensure_subgroup(G, parse_set_literal(args.subgroup, G.order))
    A = construct_threshold_example(G, H, args.g)
    result = classify(G, A)
    three_q, five_a = result.ratio_check()
    findings = []
    if result.kind is not ClassKind.NOT_SMALL or three_q != five_a:
        findings.append(f"{_replay(G.spec, A)} threshold construction expected "
                        f"kind not-small with 3|Q| = 5|A|, got {result.kind.value} "
                        f"with 3|Q| = {three_q}, 5|A| = {five_a}")
    doc = {
        "command": "construct-extremal",
        "group": G.spec,
        "order": G.order,
        "subgroup": list(H.elements),
        "g": args.g,
        "set": list(A),
        "set_size": A.size,
        "quotient_size": result.quotient_size,
        "ratio_check": {"three_q": three_q, "five_a": five_a},
        "kind": result.kind.value,
        "findings": findings,
    }
    return doc, findings


def _random_nonempty_mask(rng: random.Random, order: int) -> int:
    while True:
        bits = rng.getrandbits(order)
        if bits:
            return bits


def _run_check_lemmas(args):
    if args.box_trials < 0:
        raise ValueError(f"--box-trials must be at least 0, got {args.box_trials}")
    G = _build_tabled(args.group, enumerates=args.subgroup is None)
    # the subgroups first: a bad --subgroup is refused before the O(n^3) axioms
    if args.subgroup is not None:
        subgroups = [ensure_subgroup(G, parse_set_literal(args.subgroup, G.order))]
    else:
        subgroups = list(all_subgroups(G))
    findings = []
    axioms = verify_group_axioms(G)
    for item in axioms.failures():
        findings.append(f"{G.spec} axiom {item.name}: {item.detail}")
    subgroup_reports = []
    for H in subgroups:
        report = check_coset_laws(G, H)
        subgroup_reports.append({"subgroup": list(H.elements),
                                 "order": H.order,
                                 "report": report.to_dict()})
        for item in report.failures():
            findings.append(f"{G.spec} subgroup {H.elements.literal()} "
                            f"{item.name}: {item.detail}")
    box = None
    if args.box_trials > 0:
        rng = random.Random(args.seed)
        failures = []
        for trial in range(args.box_trials):
            A = ElemSet(G.order, _random_nonempty_mask(rng, G.order))
            B = ElemSet(G.order, _random_nonempty_mask(rng, G.order))
            report = check_counting_bounds(G, A, B)
            for item in report.failures():
                failures.append({"trial": trial, "a": list(A), "b": list(B),
                                 "check": item.name, "detail": item.detail})
                findings.append(f"{G.spec} counting bounds trial {trial} "
                                f"({A.literal()}, {B.literal()}) "
                                f"{item.name}: {item.detail}")
        box = {"trials": args.box_trials, "seed": args.seed,
               "failures": failures}
    doc = {
        "command": "check-lemmas",
        "group": G.spec,
        "order": G.order,
        "axioms": axioms.to_dict(),
        "subgroup_reports": subgroup_reports,
        "box_trials": box,
        "findings": findings,
    }
    return doc, findings


def _run_catalog(args):
    if args.group is not None:
        spec, names = spec_names(args.group)  # no table is built
        doc = {
            "command": "catalog",
            "group": spec,
            "order": len(names),
            "elements": [{"id": x, "name": name} for x, name in enumerate(names)],
            "findings": [],
        }
        return doc, []
    doc = {
        "command": "catalog",
        "max_order": args.max_order,
        "groups": [{"spec": spec, "order": order}
                   for order, spec in _catalog(args.max_order)],
        "findings": [],
    }
    return doc, []


_HANDLERS = {
    "classify": _run_classify,
    "census": _run_census,
    "conjecture-scan": _run_conjecture_scan,
    "construct-extremal": _run_construct_extremal,
    "check-lemmas": _run_check_lemmas,
    "catalog": _run_catalog,
}


# ---------------------------------------------------------------------------
# text rendering


def _set_text(elements) -> str:
    return "{" + ", ".join(str(x) for x in elements) + "}"


def _check_lines(out, checks, indent="  "):
    for check in checks["checks"]:
        detail = f" ({check['detail']})" if check["detail"] else ""
        out.append(f"{indent}{check['status']:>4} {check['name']}{detail}")


def _render_classify(doc, out):
    out.append(f"classify: {doc['group']}, set {_set_text(doc['set'])} "
               f"(size {doc['set_size']})")
    out.append(f"  quotient set: {_set_text(doc['quotient'])} "
               f"(size {doc['quotient_size']})")
    rc = doc["ratio_check"]
    rel = "<" if rc["small"] else ">="
    verdict = "small" if rc["small"] else "not small"
    out.append(f"  smallness: 3|Q| = {rc['three_q']} {rel} "
               f"5|A| = {rc['five_a']} -> {verdict}")
    out.append(f"  kind: {doc['kind']}")
    if doc["subgroup"] is not None:
        out.append(f"  subgroup: {_set_text(doc['subgroup'])} "
                   f"(order {len(doc['subgroup'])})")
    if doc["rep_a"] is not None:
        reps = f"a = {doc['rep_a']}"
        if doc["rep_b"] is not None:
            reps += f", b = {doc['rep_b']}"
        out.append(f"  representatives: {reps}")
    if doc["fused_window"] is not None:
        shape = ("single double coset HdH = Hd^-1H of size 2|H|"
                 if doc["fused_window"] else "disjoint pair dH | d^-1H")
        out.append(f"  window shape: {shape}")
    if doc["structure_checks"] is not None:
        out.append(f"  structure checks ({doc['structure_checks']['title']}):")
        _check_lines(out, doc["structure_checks"], indent="    ")


def _render_census(doc, out):
    for rep in doc["reports"]:
        out.append(f"census: {rep['group']} (order {rep['order']})")
        out.append(f"  sizes: {rep['sizes']['lo']}..{rep['sizes']['hi']}")
        out.append(f"  subsets scanned: {rep['subsets_scanned']}")
        out.append(f"  canonical classes: {rep['canonical_classes']}")
        out.append(f"  violations: {len(rep['violations'])}")
        for v in rep["violations"]:
            out.append(f"    {v['kind']} at {_set_text(v['subset'])}: {v['detail']}")
        out.append("  size  min|Q|  subsets  extremal")
        for row in rep["by_size"]:
            out.append(f"  {row['size']:>4}  {row['min_quotient']:>6}  "
                       f"{row['subsets']:>7}  {_set_text(row['extremal'])}")


def _render_scan(doc, out):
    for rep in doc["reports"]:
        out.append(f"conjecture-scan: {rep['group']} (order {rep['order']}), "
                   f"max reps {rep['max_reps']}")
        out.append(f"  subsets scanned: {rep['subsets_scanned']}")
        out.append(f"  canonical classes: {rep['canonical_classes']}")
        out.append(f"  in range: {rep['in_range']}")
        out.append(f"  witnesses found: {rep['witnesses_found']}")
        out.append(f"  counterexample candidates: {len(rep['counterexamples'])}")
        for c in rep["counterexamples"]:
            out.append(f'    ("{rep["group"]}", "{_set_text(c)}")')
        out.append(f"  sufficiency checked: {rep['sufficiency_checked']}")
        out.append(f"  sufficiency failures: {len(rep['sufficiency_failures'])}")
        for c in rep["sufficiency_failures"]:
            out.append(f'    ("{rep["group"]}", "{_set_text(c)}")')


def _render_construct(doc, out):
    out.append(f"construct-extremal: {doc['group']}, "
               f"subgroup {_set_text(doc['subgroup'])}, g = {doc['g']}")
    out.append(f"  set: {_set_text(doc['set'])} (size {doc['set_size']})")
    rc = doc["ratio_check"]
    out.append(f"  quotient size: {doc['quotient_size']} "
               f"(3|Q| = {rc['three_q']}, 5|A| = {rc['five_a']})")
    out.append(f"  kind: {doc['kind']}")


def _render_check_lemmas(doc, out):
    out.append(f"check-lemmas: {doc['group']} (order {doc['order']})")
    out.append(f"  group axioms ({doc['axioms']['title']}):")
    _check_lines(out, doc["axioms"], indent="    ")
    out.append(f"  subgroups checked: {len(doc['subgroup_reports'])}")
    for entry in doc["subgroup_reports"]:
        status = "pass" if entry["report"]["ok"] else "FAIL"
        out.append(f"    {status} subgroup {_set_text(entry['subgroup'])} "
                   f"(order {entry['order']})")
        if not entry["report"]["ok"]:
            _check_lines(out, entry["report"], indent="      ")
    if doc["box_trials"] is not None:
        box = doc["box_trials"]
        out.append(f"  counting-bound trials: {box['trials']} "
                   f"(seed {box['seed']}), failures: {len(box['failures'])}")
        for f in box["failures"]:
            out.append(f"    trial {f['trial']} A={_set_text(f['a'])} "
                       f"B={_set_text(f['b'])} {f['check']}: {f['detail']}")


def _render_catalog(doc, out):
    if "elements" in doc:
        out.append(f"catalog: {doc['group']} (order {doc['order']})")
        for e in doc["elements"]:
            out.append(f"  {e['id']:>3}  {e['name']}")
    else:
        out.append(f"catalog: groups of order at most {doc['max_order']}")
        for g in doc["groups"]:
            out.append(f"  {g['order']:>3}  {g['spec']}")


_RENDERERS = {
    "classify": _render_classify,
    "census": _render_census,
    "conjecture-scan": _render_scan,
    "construct-extremal": _render_construct,
    "check-lemmas": _render_check_lemmas,
    "catalog": _render_catalog,
}


def _render(doc, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = []
    _RENDERERS[doc["command"]](doc, out)
    findings = doc["findings"]
    if findings:
        out.append(f"findings: {len(findings)}")
        out.extend(f"  {line}" for line in findings)
    else:
        out.append("findings: none")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        doc, findings = _HANDLERS[args.verb](args)
    except (GroupSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = _render(doc, args.format)
    sys.stdout.write(rendered)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 1 if findings else 0
