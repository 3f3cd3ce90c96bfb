"""Tests for the benchmark's own code; run with ``python -m pytest perfbench``."""

import importlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import checks, layers, run, spans, workloads  # noqa: E402
from quotset.groups import build_group, catalog_specs  # noqa: E402


# --- self-time arithmetic -----------------------------------------------------

def test_self_times_nested_and_sibling_spans():
    # root [0, 100] holds siblings a [10, 40] and b [50, 70]; a holds a1 [15, 25];
    # a second top-level span c [100, 130] has no children.
    starts = [0, 10, 15, 50, 100]
    ends = [100, 40, 25, 70, 130]
    parents = [-1, 0, 1, 0, -1]
    assert spans.self_times(starts, ends, parents) == [50, 20, 10, 20, 30]


def test_self_times_counts_overlapping_children_once():
    starts, ends, parents = [0, 10, 30], [100, 40, 60], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == 50


def test_recorder_records_parents_and_unpatches():
    rec = spans.SpanRecorder()

    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    inner, outer = vars(Box)["inner"], vars(Box)["outer"]
    rec.patch(Box, "inner", rec.traced(inner.__func__, "inner"))
    rec.patch(Box, "outer", rec.traced(outer.__func__, "outer"))
    assert Box.outer(1) == 4
    assert [rec.names[i] for i in rec.name_ids] == ["outer", "inner"]
    assert list(rec.parents) == [-1, 0]
    assert rec.starts[0] <= rec.starts[1] <= rec.ends[1] <= rec.ends[0]
    rec.unpatch_all()
    assert vars(Box)["inner"] is inner and vars(Box)["outer"] is outer


def test_layer_trace_reports_every_metric_and_restores_the_package():
    cli = importlib.import_module("quotset.cli")
    census = importlib.import_module("quotset.census")
    before = (cli.main, cli.classification_census, census.classify)
    trace = layers.LayerTrace()
    trace.install()
    try:
        result = run.run_verb(["census", "--group", "dihedral 4", "--format", "json"])
    finally:
        trace.uninstall()
    assert (cli.main, cli.classification_census, census.classify) == before
    assert result.rc == 0
    metrics = trace.metrics(parallel_efficiency=1.0, overhead_s=0.0)
    assert metrics.keys() == layers.METRICS.keys()
    assert metrics["groups.build_group.calls"] == 1
    assert metrics["census.subsets_scanned"] == 2 ** 7
    small = sum(metrics[f"classify.small_{k}"] for k in ("single", "split", "fused"))
    assert small == metrics["classify.classify.calls"] > 0
    assert metrics["classify.small_fused"] > 0   # dihedral 4 has the fused shape
    assert metrics["census.sweep.self_s"] <= metrics["census.sweep.s"]


# --- correctness gate -----------------------------------------------------------

def _census(spec):
    result = run.run_verb(["census", "--group", spec, "--format", "json"])
    doc = json.loads(result.stdout)
    pinned = {"digest": checks.digest(result.stdout),
              "invariants": [checks.invariants(r) for r in doc["reports"]]}
    return result, doc, pinned


def _verdict_errors(rc, stdout, specs, pinned, check_digest=True):
    gate = checks.Gate(specs, pinned, check_digest)
    gate.check(run.VerbRun(rc, stdout, wall_s=1.0, sweep_s=1.0, masks=1))
    assert gate.attempted == len(specs)
    return gate.failed


def test_clean_report_has_no_verdict_errors():
    result, _, pinned = _census("dihedral 4")
    assert _verdict_errors(result.rc, result.stdout, ["dihedral 4"], pinned) == 0


def test_corrupted_reports_count_as_verdict_errors():
    result, doc, pinned = _census("dihedral 4")
    specs = ["dihedral 4"]

    def corrupt(edit):
        bad = json.loads(result.stdout)
        edit(bad)
        return json.dumps(bad, indent=2, sort_keys=True) + "\n"

    def wrong_orbit_sum(d):
        d["reports"][0]["by_size"][2]["subsets"] += 1

    def wrong_scanned(d):
        d["reports"][0]["subsets_scanned"] -= 1

    def finding(d):
        d["findings"].append("necessity at {0}")

    for edit in (wrong_orbit_sum, wrong_scanned, finding):
        stdout = corrupt(edit)
        assert _verdict_errors(0, stdout, specs, pinned, check_digest=False) == 1
    assert _verdict_errors(1, result.stdout, specs, pinned) == 1
    assert _verdict_errors(0, result.stdout + " ", specs, pinned) == 1
    assert _verdict_errors(0, "not json", specs, pinned) == 1
    assert _verdict_errors(0, result.stdout, ["dihedral 5"], pinned) == 1


# --- workloads and seeds -----------------------------------------------------

def test_seed_zero_runs_the_named_groups():
    catalog = workloads.plan("census-catalog", 0)
    assert catalog.specs == tuple(catalog_specs(18)) and len(catalog.specs) == 42
    assert catalog.argv(1) == ["census", "--max-order", "18", "--jobs", "1",
                               "--format", "json"]
    deep = workloads.plan("census-deep", 0)
    assert deep.specs == ("dihedral 12",)
    assert deep.argv(2) == ["census", "--group", "dihedral 12", "--jobs", "2",
                            "--format", "json"]
    scan = workloads.plan("scan-n3", 0)
    assert scan.specs == ("dihedral 10", "cyclic 20", "dicyclic 5")
    assert scan.argv(1, "groups.txt") == ["conjecture-scan", "--groups-file",
                                          "groups.txt", "--n", "3", "--jobs", "1",
                                          "--format", "json"]
    assert all(workloads.plan(name, 0).is_seed_zero_input
               for name in workloads.WORKLOADS)


def test_other_seeds_relabel_the_same_groups():
    assert workloads.plan("census-catalog", 7).is_seed_zero_input
    scan = workloads.plan("scan-n3", 7)
    assert scan == workloads.plan("scan-n3", 7)
    assert scan.specs != workloads.plan("scan-n3", 8).specs
    assert not scan.is_seed_zero_input
    assert [build_group(s).order for s in scan.specs] == [20, 20, 20]


def test_relabelled_copy_keeps_the_pinned_invariants():
    _, _, pinned = _census("dihedral 4")
    copy = workloads.relabelled_spec("dihedral 4", random.Random(3))
    assert copy.startswith("perm degree=8 ")
    result = run.run_verb(["census", "--group", copy, "--format", "json"])
    assert _verdict_errors(result.rc, result.stdout, [copy], pinned,
                           check_digest=False) == 0
