"""CLI behavior: verbs, renderings, exit codes, determinism, and error paths.

Everything goes through main(argv) with captured streams, the same entry point
the console script uses.  Reports with findings exit 1, but no honest finding
exists while the classification holds, so these tests exercise 0 and 2 only.
"""

import hashlib
import json

import pytest

from quotset import cli
from quotset.cli import main
from quotset.groups import build_group, catalog_specs


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === classify ===


def test_classify_text_for_a_fused_window(capsys):
    code, out, err = run(capsys, [
        "classify", "--group", "dihedral 4", "--set", "{0, 1, 4, 5}"])
    assert code == 0
    assert "kind: two-cosets" in out
    assert "subgroup: {0, 4} (order 2)" in out
    assert "representatives: a = 0, b = 1" in out
    assert "window shape: single double coset HdH = Hd^-1H of size 2|H|" in out
    assert "skip normalizer_route" in out
    assert "pass fused_route" in out
    assert out.rstrip().endswith("findings: none")


def test_classify_text_for_a_split_window(capsys):
    code, out, _ = run(capsys, [
        "classify", "--group", "cyclic 12", "--set", "{0, 1, 4, 5, 8, 9}"])
    assert code == 0
    assert "window shape: disjoint pair dH | d^-1H" in out
    assert "pass normalizer_route" in out
    assert "skip fused_route" in out


def test_classify_json_document(capsys):
    code, out, _ = run(capsys, [
        "classify", "--group", "dihedral 4", "--set", "{0, 1, 4, 5}",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "classify"
    assert doc["kind"] == "two-cosets"
    assert doc["set"] == [0, 1, 4, 5]
    assert doc["quotient"] == [0, 1, 3, 4, 5, 7]
    assert doc["subgroup"] == [0, 4]
    assert (doc["rep_a"], doc["rep_b"]) == (0, 1)
    assert doc["fused_window"] is True
    assert doc["ratio_check"] == {"three_q": 18, "five_a": 20, "small": True}
    assert doc["structure_checks"]["ok"] is True
    assert doc["findings"] == []


def test_classify_json_not_small(capsys):
    code, out, _ = run(capsys, [
        "classify", "--group", "cyclic 7", "--set", "{0, 1, 3}",
        "--format", "json"])
    assert code == 0  # not-small is a verdict, not a finding
    doc = json.loads(out)
    assert doc["kind"] == "not-small"
    assert doc["subgroup"] is None
    assert doc["fused_window"] is None
    assert doc["structure_checks"] is None


def test_classify_rejects_an_out_of_range_set(capsys):
    code, out, err = run(capsys, [
        "classify", "--group", "cyclic 6", "--set", "{0, 99}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_classify_rejects_a_bad_group_spec(capsys):
    code, _, err = run(capsys, [
        "classify", "--group", "klein 4", "--set", "{0}"])
    assert code == 2
    assert "unknown group family" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "cyclic 6"],                 # missing --set
    ["census"],                                          # missing selection
    ["census", "--group", "cyclic 6", "--max-order", "6"],  # exclusive pair
    ["census", "--group", "cyclic 6", "--sizes", "5..2"],
    ["census", "--group", "cyclic 6", "--sizes", "five"],
    ["conjecture-scan", "--group", "cyclic 6"],          # missing --n
    ["classify", "--group", "cyclic 6", "--set", "{0}", "--format", "yaml"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# === census ===


def test_census_text_table(capsys):
    code, out, err = run(capsys, [
        "census", "--group", "symmetric 3", "--sizes", "2..3"])
    assert code == 0
    assert "census: symmetric 3 (order 6)" in out
    assert "sizes: 2..3" in out
    assert "subsets scanned: 15" in out
    assert "violations: 0" in out
    assert "2       2       15  {0, 1}" in out
    assert "3       3       20  {0, 3, 4}" in out
    assert "census symmetric 3: 15 subsets" in err  # progress is on stderr


def test_census_json_identical_across_jobs_and_runs(capsys):
    argv = ["census", "--group", "dihedral 6", "--format", "json"]
    code, first, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    _, again, _ = run(capsys, argv + ["--jobs", "1"])
    _, parallel, _ = run(capsys, argv + ["--jobs", "4"])
    assert first == again == parallel
    doc = json.loads(first)
    assert doc["reports"][0]["violations"] == []
    assert "runtime_seconds" not in doc["reports"][0]


def test_census_over_a_groups_file(capsys, tmp_path):
    listing = tmp_path / "groups.txt"
    listing.write_text(
        "# two small groups\n"
        "cyclic 5\n"
        "\n"
        "symmetric 3  # trailing comment\n")
    code, out, _ = run(capsys, [
        "census", "--groups-file", str(listing), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [r["group"] for r in doc["reports"]] == ["cyclic 5", "symmetric 3"]


def test_census_groups_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, [
        "census", "--groups-file", str(tmp_path / "absent.txt")])
    assert code == 2 and err.startswith("error:")

    empty = tmp_path / "comments-only.txt"
    empty.write_text("# nothing here\n\n")
    code, _, err = run(capsys, ["census", "--groups-file", str(empty)])
    assert code == 2
    assert "no group specs found" in err


@pytest.mark.parametrize("argv", [
    ["census", "--max-order", "0"],
    ["conjecture-scan", "--max-order", "-3", "--n", "2"],
    ["catalog", "--max-order", "0"],
    ["catalog", "--max-order", "-3"],
])
def test_sweep_over_no_groups_is_refused(capsys, monkeypatch, argv):
    # a clean verdict, or an empty listing, over zero groups would say
    # nothing; every catalog verb refuses it before the catalog is read
    def enumerate_catalog(max_order):
        raise AssertionError(f"catalog enumerated up to order {max_order}")

    monkeypatch.setattr(cli, "catalog_entries", enumerate_catalog)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--max-order must be at least 1" in err


def test_cap_error_names_the_cli_flag(capsys):
    code, out, err = run(capsys, ["conjecture-scan", "--group", "cyclic 25",
                                  "--n", "1"])
    assert code == 2
    assert out == ""
    assert "--i-know-this-is-big" in err
    # and the flag it names lifts the cap
    code, out, _ = run(capsys, ["census", "--group", "cyclic 25", "--sizes",
                                "1..2", "--i-know-this-is-big"])
    assert code == 0
    assert "violations: 0" in out


@pytest.mark.parametrize("verb", [["census"], ["conjecture-scan", "--n", "1"]])
def test_multi_group_sweep_checks_caps_before_sweeping(capsys, tmp_path, verb):
    # every listed group is built and checked before the first sweep, so
    # the last one, of order 25, stops the command before any runs
    listing = tmp_path / "groups.txt"
    listing.write_text("cyclic 5\nsymmetric 3\ncyclic 25\n")
    code, out, err = run(capsys, [verb[0], "--groups-file", str(listing),
                                  *verb[1:]])
    assert code == 2
    assert out == ""
    assert "order 25 exceeds the sweep cap 24" in err
    assert f"{verb[0]} " not in err  # no per-group progress line


@pytest.mark.parametrize("verb", [["census"], ["conjecture-scan", "--n", "1"]])
@pytest.mark.parametrize("extra, message", [
    (["--max-order", "120"], "order 25 exceeds the sweep cap 24"),
    (["--i-know-this-is-big", "--max-order", "40"],
     "order 33 exceeds the hard sweep cap 32"),
])
def test_catalog_sweep_checks_orders_before_building_groups(
        capsys, monkeypatch, verb, extra, message):
    # the catalog lists every order, so an order above the caps stops the
    # command before any Cayley table is built
    def build_group(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli, "build_group", build_group)
    code, out, err = run(capsys, [verb[0], *extra, *verb[1:]])
    assert code == 2
    assert out == ""
    assert message in err


def test_sizes_range_is_checked_for_every_group_before_sweeping(capsys, tmp_path):
    # 1..10 fits cyclic 12 but not the later cyclic 4, so nothing may run
    listing = tmp_path / "groups.txt"
    listing.write_text("cyclic 12\ncyclic 4\n")
    code, out, err = run(capsys, ["census", "--groups-file", str(listing),
                                  "--sizes", "1..10"])
    assert code == 2
    assert out == ""
    assert "1 <= lo <= hi <= 4" in err
    assert "census " not in err  # no per-group progress line


# === conjecture-scan ===


def test_scan_json_identical_across_jobs(capsys):
    argv = ["conjecture-scan", "--group", "dihedral 4", "--n", "2",
            "--format", "json"]
    code, first, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0
    _, parallel, _ = run(capsys, argv + ["--jobs", "4"])
    assert first == parallel
    rep = json.loads(first)["reports"][0]
    assert rep["counterexamples"] == []
    assert rep["sufficiency_failures"] == []
    assert rep["witnesses_found"] == rep["in_range"]


def test_scan_over_the_catalog_by_max_order(capsys):
    code, out, _ = run(capsys, [
        "conjecture-scan", "--max-order", "8", "--n", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_reps"] == 1
    assert len(doc["reports"]) == 17  # catalog groups of order <= 8
    assert all(r["counterexamples"] == [] for r in doc["reports"])


def test_scan_text_report(capsys):
    code, out, _ = run(capsys, [
        "conjecture-scan", "--group", "symmetric 3", "--n", "2"])
    assert code == 0
    assert "conjecture-scan: symmetric 3 (order 6), max reps 2" in out
    assert "in range: 12" in out
    assert "witnesses found: 12" in out
    assert "counterexample candidates: 0" in out
    assert "sufficiency failures: 0" in out


# === construct-extremal ===


def test_construct_extremal_text(capsys):
    code, out, _ = run(capsys, [
        "construct-extremal", "--group", "cyclic 7",
        "--subgroup", "{0}", "--g", "1"])
    assert code == 0
    assert "set: {0, 1, 6} (size 3)" in out
    assert "quotient size: 5 (3|Q| = 15, 5|A| = 15)" in out
    assert "kind: not-small" in out


def test_construct_extremal_json(capsys):
    code, out, _ = run(capsys, [
        "construct-extremal", "--group", "cyclic 10",
        "--subgroup", "{0, 5}", "--g", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["set"] == [0, 1, 4, 5, 6, 9]
    assert doc["ratio_check"] == {"three_q": 30, "five_a": 30}
    assert doc["kind"] == "not-small"
    assert doc["findings"] == []


def test_construct_extremal_rejects_collapsing_g(capsys):
    code, _, err = run(capsys, [
        "construct-extremal", "--group", "cyclic 10",
        "--subgroup", "{0}", "--g", "5"])
    assert code == 2
    assert "lands in the subgroup" in err


# === check-lemmas ===


def test_check_lemmas_single_subgroup_with_trials(capsys):
    code, out, _ = run(capsys, [
        "check-lemmas", "--group", "symmetric 3", "--subgroup", "{0, 1}",
        "--box-trials", "25", "--seed", "7"])
    assert code == 0
    assert "pass identity" in out
    assert "subgroups checked: 1" in out
    assert "pass subgroup {0, 1} (order 2)" in out
    assert "counting-bound trials: 25 (seed 7), failures: 0" in out


def test_check_lemmas_all_subgroups(capsys):
    code, out, _ = run(capsys, ["check-lemmas", "--group", "dihedral 4"])
    assert code == 0
    assert "subgroups checked: 10" in out
    assert "counting-bound trials" not in out  # off by default


def test_check_lemmas_trials_reproducible(capsys):
    argv = ["check-lemmas", "--group", "cyclic 8", "--box-trials", "40",
            "--seed", "3", "--format", "json"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, again, _ = run(capsys, argv)
    assert first == again
    box = json.loads(first)["box_trials"]
    assert box == {"trials": 40, "seed": 3, "failures": []}


def test_check_lemmas_rejects_a_non_subgroup(capsys):
    code, _, err = run(capsys, [
        "check-lemmas", "--group", "cyclic 6", "--subgroup", "{0, 1}"])
    assert code == 2
    assert "is not a subgroup" in err


def test_check_lemmas_rejects_negative_box_trials(capsys):
    code, out, err = run(capsys, [
        "check-lemmas", "--group", "cyclic 4", "--box-trials", "-5"])
    assert code == 2
    assert out == ""
    assert "--box-trials must be at least 0" in err


# === catalog ===


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog", "--max-order", "8"])
    assert code == 0
    assert "catalog: groups of order at most 8" in out
    lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(lines) == 17
    assert "    8  dihedral 4" in out


def test_catalog_listing_json(capsys):
    code, out, _ = run(capsys, [
        "catalog", "--max-order", "6", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["groups"][0] == {"spec": "cyclic 1", "order": 1}
    assert {"spec": "symmetric 3", "order": 6} in doc["groups"]


def test_catalog_orders_come_from_the_specs(capsys):
    code, out, _ = run(capsys, [
        "catalog", "--max-order", "30", "--format", "json"])
    assert code == 0
    groups = json.loads(out)["groups"]
    assert [g["spec"] for g in groups] == catalog_specs(30)
    for g in groups:
        assert g["order"] == build_group(g["spec"]).order, g["spec"]


@pytest.mark.parametrize("verb", [
    ["catalog"], ["census"], ["conjecture-scan", "--n", "1"]])
def test_huge_max_order_fails_before_any_work(capsys, monkeypatch, verb):
    def enumerate_catalog(max_order):
        raise AssertionError(f"catalog enumerated up to order {max_order}")

    monkeypatch.setattr(cli, "catalog_entries", enumerate_catalog)
    code, out, err = run(capsys, [verb[0], "--max-order", str(10 ** 9), *verb[1:]])
    assert code == 2
    assert out == ""
    assert "exceeds the group order cap 5040" in err


def test_catalog_element_name_map(capsys):
    code, out, _ = run(capsys, ["catalog", "--group", "dihedral 4"])
    assert code == 0
    assert "catalog: dihedral 4 (order 8)" in out
    assert "  0  r^0" in out
    assert "  5  r^1 s" in out


# === output files ===


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "census", "--group", "symmetric 3", "--format", "json",
        "--output", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_output_file_in_a_missing_directory(capsys, tmp_path):
    code, _, err = run(capsys, [
        "catalog", "--max-order", "4",
        "--output", str(tmp_path / "no" / "such" / "dir.txt")])
    assert code == 2
    assert err.startswith("error:")


# === golden reports ===


# sha256 of stdout, pinned so that any change to a sweep kernel must keep the
# reports byte-identical (or re-pin them deliberately, with the reason)
@pytest.mark.parametrize("argv, digest", [
    (["census", "--max-order", "12", "--format", "json"],
     "3226ceb4c32ad093636437e833136bc56c78969394adb3dfa0136d66dd41d902"),
    (["conjecture-scan", "--max-order", "12", "--n", "2", "--format", "json"],
     "4bea7c9b1f6de9ed22839e99f8220f14635cc1f2a9cb06fe1b4aae4d3421bae7"),
    (["census", "--max-order", "16", "--format", "json"],
     "5e584bba6e1e36f3e5047a40148c2a90c2febe4a593a49dba0449a40519a279e"),
    (["conjecture-scan", "--max-order", "16", "--n", "3", "--format", "json"],
     "1297da09eb73ec1c7235c782db4566d2a8d9376dbcabb528a15174536a5894be"),
    # the order-16 reports again at two jobs, with the same digests
    (["census", "--max-order", "16", "--format", "json", "--jobs", "2"],
     "5e584bba6e1e36f3e5047a40148c2a90c2febe4a593a49dba0449a40519a279e"),
    (["conjecture-scan", "--max-order", "16", "--n", "3", "--format", "json",
      "--jobs", "2"],
     "1297da09eb73ec1c7235c782db4566d2a8d9376dbcabb528a15174536a5894be"),
])
def test_sweep_reports_match_golden_digests(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout for the verbs that read normalizers, right cosets and
# representation counts outside the sweeps; dihedral 20 (order 40) is past
# order 36, where the action tables are stored as sub-chunks
@pytest.mark.parametrize("argv, digest", [
    (["check-lemmas", "--group", "symmetric 4", "--box-trials", "30", "--seed", "5"],
     "157890ae61bbc7a925d3fa1b97b47926fbe3e1e435d8be5828e5aac07bb738bd"),
    (["check-lemmas", "--group", "dihedral 20", "--box-trials", "30", "--seed", "5"],
     "d57490dc4ea8ddcf76931ca0f35ed381d08619f33a0d6e7da5b664e486e3fdcc"),
    (["construct-extremal", "--group", "dicyclic 6", "--subgroup", "{0, 6}",
      "--g", "1"],
     "6d03b8ebde87b4b3858163a190652e675fcea9338f26d0383f1401e2821ec6f4"),
    (["construct-extremal", "--group", "dihedral 20", "--subgroup",
      "{0, 5, 10, 15}", "--g", "3"],
     "b0add2c7652a9d17093cdf752e810fe79d8257339ed6bcc31d05d85f90a525a1"),
])
def test_lemma_and_extremal_reports_match_golden_digests(capsys, argv, digest):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the order-18 reports at one and two jobs, pinned like the ones
# above; the whole set takes about 15 s
@pytest.mark.extended
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv, digest", [
    (["census", "--max-order", "18"],
     "ccaa99adca33685258e8df3f9a54693d302cfda302cdad179d0c88ec747a0483"),
    (["conjecture-scan", "--max-order", "18", "--n", "1"],
     "a180f1db7190eca8ca0a2edf15dfd2b4cd4ca7615eb907c80bdc149d06f9d89d"),
    (["conjecture-scan", "--max-order", "18", "--n", "2"],
     "329c4772ed1fb7ebe97511f5eb9c96be27a3fb56cd6f874cd9309d1e898be205"),
    (["conjecture-scan", "--max-order", "18", "--n", "3"],
     "4fd46e1122d8310fe7f036790b5a6508fcd0c3a93f360752ecca4a3f94b0afea"),
])
def test_order_18_reports_match_golden_digests(capsys, argv, digest, jobs):
    code, out, _ = run(capsys, argv + ["--format", "json", "--jobs", jobs])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
