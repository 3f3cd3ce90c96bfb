"""Classification of small-quotient sets, structure checks, and stability.

The two-cosets picture comes in two shapes: the representative d = inv(a)*b
either normalizes the subgroup (window dH | inv(d)H) or fuses both double
cosets into one inversion-closed window HdH = H inv(d) H of size 2|H|.  The
dihedral-4 set {e, r, s, rs} realizes the fused shape and is pinned here
explicitly, since it is the configuration a naive normalizer-only reading
misses.
"""

import hashlib
import json
import random

import pytest

from quotset.classify import (
    ClassKind,
    Classification,
    _window_masks,
    check_sufficiency,
    classify,
    construct_threshold_example,
    stability_diagnostics,
    verify_structure,
)
from quotset.cli import main
from quotset.groups import build_group, catalog_specs
from quotset.setops import ElemSet, left_translate_mask, quotient_set
from quotset.subgroups import all_subgroups, ensure_subgroup

from oracles import (
    naive_canonical_masks,
    naive_generated,
    naive_heavy,
    naive_quotient,
    random_subset,
)


def _status(report):
    return [(i.name, i.status) for i in report.items]


# === classify on pinned examples ===


def test_singleton_is_a_single_coset_of_the_trivial_subgroup(c8):
    r = classify(c8, ElemSet.from_elements(8, [0]))
    assert r.kind is ClassKind.SINGLE_COSET
    assert r.subgroup.order == 1
    assert r.quotient == ElemSet.from_elements(8, [0])
    assert r.small and r.ratio_check() == (3, 5)


def test_subgroup_classifies_as_single_coset_of_itself(c12):
    A = ElemSet.from_elements(12, [0, 4, 8])
    r = classify(c12, A)
    assert r.kind is ClassKind.SINGLE_COSET
    assert set(r.subgroup) == {0, 4, 8}
    assert r.quotient == A


def test_dense_subset_of_one_coset(make_group):
    G = make_group("cyclic 4")
    r = classify(G, ElemSet.from_elements(4, [0, 1, 2]))
    assert r.kind is ClassKind.SINGLE_COSET
    assert r.subgroup.order == 4
    assert r.quotient_size == 4


def test_smallest_qualifying_subgroup_wins(c8):
    # {0, 4} sits inside both the order-2 and order-4 subgroups; the
    # classifier must pick the small one (where Q = H is exact)
    r = classify(c8, ElemSet.from_elements(8, [0, 4]))
    assert r.kind is ClassKind.SINGLE_COSET
    assert set(r.subgroup) == {0, 4}


def test_two_cosets_in_a_cyclic_group(c12):
    A = ElemSet.from_elements(12, [0, 4, 8, 1, 5, 9])
    r = classify(c12, A)
    assert r.kind is ClassKind.TWO_COSETS
    assert set(r.subgroup) == {0, 4, 8}
    assert (r.rep_a, r.rep_b) == (0, 1)
    assert r.fused is False
    assert r.quotient_size == 9
    report = verify_structure(c12, A, r)
    assert report.ok
    assert _status(report) == [
        ("ratio_bound", "pass"), ("window_size", "pass"),
        ("window_misses_subgroup", "pass"), ("union_is_quotient", "pass"),
        ("normalizer_route", "pass"), ("fused_route", "skip")]


def test_two_cosets_of_the_trivial_subgroup(d4):
    r = classify(d4, ElemSet.from_elements(8, [0, 1]))
    assert r.kind is ClassKind.TWO_COSETS
    assert r.subgroup.order == 1
    assert r.fused is False
    assert r.quotient_size == 3


def test_fused_window_set_in_dihedral_4(d4):
    # A = {e, r, s, rs}: |Q| = 6 < 20/3, every choice of representative
    # pair for the only covering subgroup H = {e, s} gives d outside N(H),
    # and HdH = H inv(d) H is a single double coset of size 4 = 2|H|.
    A = ElemSet.from_elements(8, [0, 1, 4, 5])
    r = classify(d4, A)
    assert r.kind is ClassKind.TWO_COSETS
    assert set(r.subgroup) == {0, 4}
    assert (r.rep_a, r.rep_b) == (0, 1)
    assert r.fused is True
    assert r.quotient_size == 6 and r.set_size == 4
    assert set(r.quotient) == {0, 1, 3, 4, 5, 7}

    report = verify_structure(d4, A, r)
    assert report.ok
    assert _status(report) == [
        ("ratio_bound", "pass"), ("window_size", "pass"),
        ("window_misses_subgroup", "pass"), ("union_is_quotient", "pass"),
        ("normalizer_route", "skip"), ("fused_route", "pass")]

    suff = check_sufficiency(d4, r.subgroup, r.rep_a, r.rep_b, A)
    assert suff.ok
    assert _status(suff) == [
        ("direct_smallness", "pass"), ("direct_quotient_formula", "pass"),
        ("forced_window", "pass"), ("two_coset_conclusion", "pass")]


def test_all_fused_sets_in_dihedral_4(d4):
    # eight identity-containing subsets of D4 (two translates from each of
    # four canonical classes) need the fused shape, and nothing violates
    fused = []
    for bits in range(1, 256, 2):
        A = ElemSet(8, bits)
        r = classify(d4, A)
        assert r.kind is not ClassKind.VIOLATION, list(A)
        if r.kind is ClassKind.TWO_COSETS and r.fused:
            fused.append(tuple(A))
            assert verify_structure(d4, A, r).ok, list(A)
    assert fused == [
        (0, 1, 4, 5), (0, 3, 4, 5), (0, 1, 5, 6), (0, 3, 5, 6),
        (0, 1, 4, 7), (0, 3, 4, 7), (0, 1, 6, 7), (0, 3, 6, 7)]


def test_not_small_examples(c7, s3):
    r = classify(c7, ElemSet.from_elements(7, [0, 1, 3]))
    assert r.kind is ClassKind.NOT_SMALL
    assert r.quotient_size == 7 and not r.small
    r = classify(s3, ElemSet.from_elements(6, [0, 1, 2]))
    assert r.kind is ClassKind.NOT_SMALL


def test_classify_rejects_bad_input(c8):
    with pytest.raises(ValueError):
        classify(c8, ElemSet(8))
    with pytest.raises(ValueError):
        classify(c8, ElemSet.from_elements(9, [0]))


def test_classification_is_translation_covariant(d4):
    # translating the set never changes the kind or the subgroup order
    A = ElemSet.from_elements(8, [0, 1, 4, 5])
    base = classify(d4, A)
    for g in range(8):
        t = ElemSet(8, left_translate_mask(d4, g, A.bits))
        r = classify(d4, t)
        assert r.kind is base.kind
        assert r.subgroup.order == base.subgroup.order
        assert r.fused is base.fused


def test_exhaustive_no_violation_on_small_groups(make_group):
    # every subset of every group of order <= 8 in the catalog classifies;
    # whenever the quotient is small some picture must be found and verify
    for spec in catalog_specs(8):
        G = make_group(spec)
        for bits in range(1, 1 << G.order):
            A = ElemSet(G.order, bits)
            r = classify(G, A)
            assert r.kind is not ClassKind.VIOLATION, (spec, list(A))
            if r.kind in (ClassKind.SINGLE_COSET, ClassKind.TWO_COSETS):
                assert 3 * r.quotient_size < 5 * r.set_size
                assert verify_structure(G, A, r).ok, (spec, list(A))
            else:
                assert 3 * r.quotient_size >= 5 * r.set_size


def test_two_coset_quotient_size_is_exactly_three_subgroup_orders(make_group):
    # the refined picture: |Q| = 3|H| exactly, in both window shapes
    for spec in catalog_specs(10):
        G = make_group(spec)
        for bits in range(1, 1 << G.order, 2):
            A = ElemSet(G.order, bits)
            r = classify(G, A)
            if r.kind is ClassKind.TWO_COSETS:
                assert r.quotient_size == 3 * r.subgroup.order, (spec, list(A))


def test_classify_reports_match_golden_digest(capsys):
    # sha256 over every small canonical set of the catalog up to order 12:
    # its classification, the structure report and, for two cosets, the
    # sufficiency report; then the classify verb's JSON for a single-coset,
    # a split, a fused set and a translate of it, and a not-small set.
    # Pinned before the census stopped building these reports for the sets
    # it sweeps.
    h = hashlib.sha256()
    for spec in catalog_specs(12):
        G = build_group(spec)
        for m in naive_canonical_masks(G):
            A = ElemSet(G.order, m)
            r = classify(G, A)
            if not r.small:
                continue
            record = [spec, list(A), r.kind.value,
                      list(r.subgroup) if r.subgroup else None,
                      r.rep_a, r.rep_b, r.fused]
            if r.kind is not ClassKind.VIOLATION:
                record.append(verify_structure(G, A, r).to_dict())
            if r.kind is ClassKind.TWO_COSETS:
                record.append(check_sufficiency(
                    G, r.subgroup, r.rep_a, r.rep_b, A).to_dict())
            h.update(json.dumps(record).encode("utf-8") + b"\n")
    for spec, literal in [("cyclic 12", "{0, 4, 8}"),
                          ("cyclic 12", "{0, 1, 4, 5, 8, 9}"),
                          ("dihedral 4", "{0, 1, 4, 5}"),
                          ("dihedral 4", "{2, 3, 6, 7}"),
                          ("cyclic 7", "{0, 1, 3}")]:
        assert main(["classify", "--group", spec, "--set", literal,
                     "--format", "json"]) == 0
        h.update(capsys.readouterr().out.encode("utf-8"))
    assert h.hexdigest() == (
        "c6ca73da5699e74bb8c1d3f812662f72a576e9ebe0cdaf2d71ccce7ce43757ff")


# === verify_structure error paths ===


def test_verify_structure_rejects_other_kinds(c7):
    A = ElemSet.from_elements(7, [0, 1, 3])
    r = classify(c7, A)
    with pytest.raises(ValueError, match="no structure"):
        verify_structure(c7, A, r)


def test_verify_structure_rejects_mismatched_set(c12):
    A = ElemSet.from_elements(12, [0, 4, 8])
    r = classify(c12, A)
    with pytest.raises(ValueError, match="quotient"):
        verify_structure(c12, ElemSet.from_elements(12, [0, 6]), r)


def test_verify_structure_rejects_witness_outside_cosets(c12):
    A = ElemSet.from_elements(12, [0, 4, 8])
    r = classify(c12, A)
    bad = Classification(r.kind, r.quotient, r.set_size, r.quotient_size,
                         subgroup=ensure_subgroup(
                             c12, ElemSet.from_elements(12, [0, 6])),
                         rep_a=0)
    with pytest.raises(ValueError, match="coset"):
        verify_structure(c12, A, bad)
    # a two-coset claim whose representatives share one coset of H
    same = Classification(ClassKind.TWO_COSETS, r.quotient, r.set_size,
                          r.quotient_size, subgroup=r.subgroup, rep_a=0,
                          rep_b=4, fused=False)
    with pytest.raises(ValueError, match="same coset"):
        verify_structure(c12, A, same)


# === the sufficiency checker ===


def test_sufficiency_rejects_degenerate_witnesses(c8):
    H = ensure_subgroup(c8, ElemSet.from_elements(8, [0, 4]))
    A = ElemSet.from_elements(8, [0, 1, 4, 5])
    with pytest.raises(ValueError, match="same coset"):
        check_sufficiency(c8, H, 0, 4, A)
    with pytest.raises(ValueError, match="inside"):
        check_sufficiency(c8, H, 0, 1, ElemSet.from_elements(8, [0, 1, 2]))
    with pytest.raises(ValueError, match="both cosets"):
        check_sufficiency(c8, H, 0, 1, ElemSet.from_elements(8, [0, 4]))


def test_sufficiency_direct_route_on_a_sparse_pair(c8):
    # {0, 1} over the trivial subgroup: direct route applies and concludes
    H = ensure_subgroup(c8, ElemSet.from_elements(8, [0]))
    report = check_sufficiency(c8, H, 0, 1, ElemSet.from_elements(8, [0, 1]))
    assert report.ok
    assert dict(_status(report))["direct_smallness"] == "pass"
    assert dict(_status(report))["direct_quotient_formula"] == "pass"


def test_sufficiency_folds_into_single_coset_when_d_squares_in(c8):
    # d = 4 squares into the trivial subgroup, so the forced route lands in
    # the doubled-subgroup conclusion and the direct route skips (window 1)
    H = ensure_subgroup(c8, ElemSet.from_elements(8, [0]))
    report = check_sufficiency(c8, H, 0, 4, ElemSet.from_elements(8, [0, 4]))
    assert report.ok
    assert _status(report) == [
        ("direct_route", "skip"), ("forced_window", "pass"),
        ("single_coset_conclusion", "pass")]


def test_sufficiency_both_routes_skip_when_hypotheses_fail(s4):
    # order-2 subgroup with |HdH| = 4 and HdH != H inv(d) H: the window is
    # too big for the direct route and |Q| = 10 > 3|H| blocks the forced
    # one, so both report skips and the reason strings say why
    found = None
    for H in all_subgroups(s4):
        if H.order != 2:
            continue
        for d in range(24):
            hdh, hdinvh = _window_masks(s4, H, d)
            if hdh.bit_count() == 4 and hdh != hdinvh:
                found = (H, d)
                break
        if found:
            break
    H, d = found
    A = ElemSet(24, H.bits | left_translate_mask(s4, d, H.bits))
    assert quotient_set(s4, A).size == 10
    report = check_sufficiency(s4, H, 0, d, A)
    assert _status(report) == [
        ("direct_route", "skip"), ("forced_window_route", "skip")]
    assert all("skipped" in i.detail for i in report.items)
    assert classify(s4, A).kind is ClassKind.NOT_SMALL


def test_sufficiency_agrees_with_classify_everywhere(d4, s3):
    # drive the checker from every two-coset configuration the classifier
    # emits over two small groups
    for G in (d4, s3):
        for bits in range(1, 1 << G.order, 2):
            A = ElemSet(G.order, bits)
            r = classify(G, A)
            if r.kind is ClassKind.TWO_COSETS:
                report = check_sufficiency(G, r.subgroup, r.rep_a, r.rep_b, A)
                assert report.ok, (G.spec, list(A), report.to_dict())


# === the threshold construction ===


def test_threshold_example_in_cyclic_7(c7):
    H = ensure_subgroup(c7, ElemSet.from_elements(7, [0]))
    A = construct_threshold_example(c7, H, 1)
    assert list(A) == [0, 1, 6]
    r = classify(c7, A)
    assert r.kind is ClassKind.NOT_SMALL
    assert 3 * r.quotient_size == 5 * r.set_size


def test_threshold_example_in_cyclic_10(c10):
    H = ensure_subgroup(c10, ElemSet.from_elements(10, [0, 5]))
    A = construct_threshold_example(c10, H, 1)
    assert list(A) == [0, 1, 4, 5, 6, 9]
    r = classify(c10, A)
    assert r.kind is ClassKind.NOT_SMALL
    assert 3 * r.quotient_size == 5 * r.set_size


def test_threshold_example_in_a_nonabelian_group(make_group):
    # rotations give room: H trivial, g = r of order 6 in dihedral 6
    G = make_group("dihedral 6")
    H = ensure_subgroup(G, ElemSet.from_elements(12, [0]))
    A = construct_threshold_example(G, H, 1)
    assert A.size == 3
    assert 3 * quotient_set(G, A).size == 5 * A.size


def test_threshold_example_rejects_non_normalizing_g(d4):
    H = ensure_subgroup(d4, ElemSet.from_elements(8, [0, 4]))
    with pytest.raises(ValueError, match="normalize"):
        construct_threshold_example(d4, H, 1)


def test_threshold_example_rejects_collapsing_powers(c8, c10):
    H2 = ensure_subgroup(c8, ElemSet.from_elements(8, [0, 4]))
    with pytest.raises(ValueError, match="power"):
        construct_threshold_example(c8, H2, 2)
    H1 = ensure_subgroup(c10, ElemSet.from_elements(10, [0]))
    with pytest.raises(ValueError, match="power"):
        construct_threshold_example(c10, H1, 5)


def test_threshold_example_rejects_bad_element(c7):
    H = ensure_subgroup(c7, ElemSet.from_elements(7, [0]))
    with pytest.raises(ValueError, match="range"):
        construct_threshold_example(c7, H, 7)


# === stability diagnostics ===


def test_stability_on_a_subgroup(c12):
    A = ElemSet.from_elements(12, [0, 4, 8])
    d = stability_diagnostics(c12, A)
    assert d.ok and d.in_scope
    assert d.heavy == A and set(d.span) == {0, 4, 8}
    assert d.saturated == A
    assert d.full_count_matches_span
    assert d.gap_satisfied


def test_stability_tracks_the_naive_heavy_set(make_group):
    rng = random.Random(0x11A)
    specs = catalog_specs(12)
    for _ in range(150):
        G = make_group(rng.choice(specs))
        A = random_subset(rng, G.order)
        d = stability_diagnostics(G, ElemSet.from_elements(G.order, A))
        assert set(d.heavy) == naive_heavy(G, A)
        assert set(d.span) == naive_generated(G, naive_heavy(G, A))
        assert set(d.quotient) == naive_quotient(G, A)


def test_stability_in_scope_example(c8):
    d = stability_diagnostics(c8, ElemSet.from_elements(8, [0, 1]))
    assert d.in_scope
    assert set(d.heavy) == {0}
    assert d.span.order == 1
    assert d.gap_low == 1 and d.gap_high == 1
    assert d.ok


def test_stability_out_of_scope_is_reported_not_asserted(c7):
    # a spread-out set: quotient is everything, the heavy part goes empty,
    # and the skip items record why the stability laws were not exercised
    d = stability_diagnostics(c7, ElemSet.from_elements(7, [0, 1, 3]))
    assert not d.in_scope
    assert not d.heavy
    assert d.ok
    skips = [i.name for i in d.stability.items if i.status == "skip"]
    assert skips == ["heavy_times_quotient", "quotient_times_heavy"]


def test_stability_scope_requires_saturation(make_group):
    # A = {0, 1, 2} over cyclic 4 has a small quotient, but its heavy part
    # generates the whole group and A cannot absorb that span, so the
    # r-gap promise is out of scope; the report stays clean regardless
    G = make_group("cyclic 4")
    A = ElemSet.from_elements(4, [0, 1, 2])
    d = stability_diagnostics(G, A)
    assert 3 * d.quotient.size < 5 * A.size
    assert d.span.order == 4
    assert d.saturated != A
    assert not d.in_scope
    assert d.ok


def test_stability_exhaustive_on_two_groups(s3, q8):
    for G in (s3, q8):
        for bits in range(1, 1 << G.order):
            d = stability_diagnostics(G, ElemSet(G.order, bits))
            assert d.ok, (G.spec, bin(bits))


def test_stability_rejects_empty_or_mismatched(c8):
    with pytest.raises(ValueError):
        stability_diagnostics(c8, ElemSet(8))
    with pytest.raises(ValueError):
        stability_diagnostics(c8, ElemSet.from_elements(12, [0]))
