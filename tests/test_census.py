"""Canonical forms, the exhaustive classification census, and structure scans.

Frozen counts in here were read off a passing run and double-checked against
the naive oracles where the group is small enough to brute-force; they guard
against silent regressions in the sweep, the canonicalization, and the merge.
"""

import hashlib
import importlib
import json
import math
import multiprocessing
import random

import pytest

from quotset.census import (
    DEFAULT_CENSUS_CAP,
    HARD_CENSUS_CAP,
    _canonical_masks,
    _sandwich,
    _structure_hypotheses_exist,
    canonical_form,
    classification_census,
    find_structure_witness,
    iter_canonical_sets,
    structure_scan,
)
from quotset.classify import ClassKind, _coset_picture, _picture_candidates, classify
from quotset.groups import build_group, catalog_specs
from quotset.setops import (
    ElemSet,
    left_translate_mask,
    product_mask,
    quotient_mask,
    quotient_set,
)
from quotset.subgroups import all_subgroups, ensure_subgroup, left_cosets, normalizer

from oracles import (
    naive_canonical,
    naive_double_coset,
    naive_min_quotients,
    naive_quotient,
    random_subset,
)

# the package exports a function named classify, so reach the modules
# themselves for patching
census = importlib.import_module("quotset.census")
classify_module = importlib.import_module("quotset.classify")


# === canonical forms ===


def test_canonical_form_matches_oracle(make_group):
    rng = random.Random(0xCA7)
    specs = catalog_specs(12)
    for _ in range(200):
        G = make_group(rng.choice(specs))
        A = random_subset(rng, G.order)
        got = canonical_form(G, ElemSet.from_elements(G.order, A))
        assert set(got) == naive_canonical(G, A)


def test_canonical_form_properties(make_group):
    rng = random.Random(0x1DE)
    G = make_group("dihedral 6")
    for _ in range(80):
        A = ElemSet.from_elements(12, random_subset(rng, 12))
        c = canonical_form(G, A)
        assert 0 in c
        assert canonical_form(G, c) == c
        g = rng.randrange(12)
        translated = ElemSet(12, left_translate_mask(G, g, A.bits))
        assert canonical_form(G, translated) == c
        assert quotient_set(G, c) == quotient_set(G, A)


def test_canonical_form_rejects_empty(c8):
    with pytest.raises(ValueError):
        canonical_form(c8, ElemSet(8))


def test_iter_canonical_sets_counts(s3, d4, c8):
    assert sum(1 for _ in iter_canonical_sets(s3)) == 15
    assert sum(1 for _ in iter_canonical_sets(d4)) == 42
    assert sum(1 for _ in iter_canonical_sets(c8)) == 35


def test_iter_canonical_sets_yields_canonical_reps(s3):
    seen = set()
    for A in iter_canonical_sets(s3):
        assert 0 in A
        assert canonical_form(s3, A) == A
        assert A.bits not in seen
        seen.add(A.bits)


def test_iter_canonical_sets_respects_size_filter(d4):
    got = list(iter_canonical_sets(d4, sizes=(3, 4)))
    assert all(3 <= A.size <= 4 for A in got)
    full = [A for A in iter_canonical_sets(d4) if 3 <= A.size <= 4]
    assert got == full


# === the sweep kernel ===


@pytest.mark.parametrize("spec", catalog_specs(12) + ["cyclic 13", "cyclic 15",
                                                     "dihedral 8"])
def test_sweep_kernel_matches_canonical_form(make_group, spec):
    # every partition width the sweeps use up to 8 partitions; orders 1-4
    # leave some of the kernel's three chunks empty.  At orders 15 and 16
    # (chunks of 5 and 6 bits) the middle size range holds blocks whose
    # chunk-0 values all fit it and blocks that straddle one of its ends.
    G = make_group(spec)
    n = G.order
    expected = {}
    for m in range(1, 1 << n, 2):
        A = ElemSet(n, m)
        if canonical_form(G, A).bits == m:
            stab = sum(1 for a in A
                       if {G.mul[G.inv[a]][x] for x in A} == set(A))
            expected[m] = (m.bit_count(), quotient_mask(G, m), stab)
    lo, hi = (n + 1) // 3, (2 * n + 2) // 3
    for sizes in ((1, n), (lo, hi)):
        for width in range(min(3, n - 1) + 1):
            got = {}
            for pattern in range(1 << width):
                visited = [0]
                for m, k, qmask, stab in _canonical_masks(G, *sizes, width,
                                                          pattern, visited):
                    assert m not in got
                    got[m] = (k, qmask, stab)
                # every mask of the partition in the size range, counted
                assert visited[0] == sum(
                    1 for m in range(1, 1 << n, 2)
                    if (m >> 1) % (1 << width) == pattern
                    and sizes[0] <= m.bit_count() <= sizes[1])
            assert got == {m: row for m, row in expected.items()
                           if sizes[0] <= row[0] <= sizes[1]}
    assert [m for m, *_ in _canonical_masks(G, lo, hi, 0, 0, [0])] == sorted(
        m for m, row in expected.items() if lo <= row[0] <= hi)


@pytest.mark.parametrize("spec", catalog_specs(12) + ["cyclic 13", "cyclic 15",
                                                     "dihedral 8"])
def test_block_prefilter_drops_only_non_canonical_masks(make_group, spec):
    # the kernel's bulk prefilter, block by block against canonical_form:
    # every chunk-0 value it drops completes the block's high chunks to a
    # non-canonical mask.  The merged high rows come from G.mul, not from
    # the action tables.
    G = make_group(spec)
    n = G.order
    w = G.action_tables().width
    cm = (1 << w) - 1
    need = census._prefilter_tables(G, w)
    canonical = {m for m in range(1, 1 << n, 2)
                 if canonical_form(G, ElemSet(n, m)).bits == m}
    for width in range(min(3, n - 1) + 1):
        dropped = 0
        for pattern in range(1 << width):
            blocks = {}
            for m in range(1, 1 << n, 2):
                if (m >> 1) % (1 << width) == pattern:
                    blocks[m & ~cm] = blocks.get(m & ~cm, 0) | 1 << (m & cm)
            for m1, cand in blocks.items():
                if not m1:
                    continue
                high = [x for x in range(w, n) if m1 >> x & 1]
                r12 = [sum(1 << G.mul[G.inv[a]][x] for x in high)
                       for a in range(n)]
                kept = census._block_survivors(cand, m1, r12,
                                               high + list(range(1, w)), need)
                assert kept & ~cand == 0
                gone = cand & ~kept
                assert not [c0 for c0 in range(cm + 1)
                            if gone >> c0 & 1 and m1 | c0 in canonical]
                dropped += gone.bit_count()
        if spec == "dihedral 8":
            # a filter that dropped nothing would pass the check above
            assert 2 * dropped > 1 << n - 1, width


def _burnside_orbit_counts(G):
    # k-subsets per left-translation orbit, by Burnside: x -> g*x has
    # |G|/ord(g) cycles of length ord(g), so g fixes C(|G|/ord g, k/ord g)
    # k-subsets when ord(g) divides k.  Orders come from G.mul alone.
    n = G.order
    e = next(x for x in range(n) if all(G.mul[x][y] == y for y in range(n)))
    orders = []
    for g in range(n):
        x, o = g, 1
        while x != e:
            x, o = G.mul[x][g], o + 1
        orders.append(o)
    counts = {}
    for k in range(1, n + 1):
        fixed = sum(math.comb(n // o, k // o) for o in orders if k % o == 0)
        assert fixed % n == 0
        counts[k] = fixed // n
    return counts


@pytest.mark.parametrize("spec", catalog_specs(16))
def test_canonical_classes_match_burnside(make_group, spec):
    # every translation orbit has one canonical set, so the kernel yields
    # as many masks of each size as Burnside counts orbits, and the census
    # reports their sum
    G = make_group(spec)
    expected = _burnside_orbit_counts(G)
    for width in sorted({0, min(2, G.order - 1)}):
        got = dict.fromkeys(expected, 0)
        for pattern in range(1 << width):
            for _, k, _, _ in _canonical_masks(G, 1, G.order, width, pattern, [0]):
                got[k] += 1
        assert got == expected, width
    assert classification_census(G).canonical_classes == sum(expected.values())


def _naive_picture(G, amask, subgroups):
    # the two coset pictures straight off their hypotheses, over every
    # subgroup: the first H whose left coset holds A with 5|A| > 3|H|, else
    # the first H whose two left cosets hold A with 5|A| > 9|H| and a
    # window HdH | H inv(d) H of size 2|H|
    A = [x for x in range(G.order) if amask >> x & 1]
    a = A[0]
    for H in subgroups:
        if 5 * len(A) > 3 * H.order and {G.mul[a][h] for h in H} >= set(A):
            return H, a, None
    for H in subgroups:
        coset_a = {G.mul[a][h] for h in H}
        rest = [x for x in A if x not in coset_a]
        if 5 * len(A) <= 9 * H.order or not rest:
            continue
        b = rest[0]
        if not {G.mul[b][h] for h in H} >= set(rest):
            continue
        d = G.mul[G.inv[a]][b]
        window = (naive_double_coset(G, H, d)
                  | naive_double_coset(G, H, G.inv[d]))
        if len(window) == 2 * H.order:
            return H, a, b
    return None


def test_classify_candidates_pick_the_same_picture(make_group):
    # the census searches for a picture among only the subgroups that could
    # realize it for the set's size; the first hit must not change, and on
    # a small set it must be the subgroup and representatives that
    # classify reports
    for spec in catalog_specs(12):
        G = make_group(spec)
        subgroups = all_subgroups(G)
        for m, k, qmask, _ in _canonical_masks(G, 1, G.order, 0, 0, [0]):
            picture = _coset_picture(G, m, *_picture_candidates(G, subgroups, k))
            assert picture == _naive_picture(G, m, subgroups)
            if 3 * qmask.bit_count() < 5 * k:
                r = classify(G, ElemSet(G.order, m))
                assert picture == (r.subgroup, r.rep_a, r.rep_b)
            else:
                assert picture is None


# === the classification census ===


def test_census_of_symmetric_3(s3):
    r = classification_census(s3)
    assert r.ok and not r.violations
    assert r.order == 6
    assert r.subsets_scanned == 32
    assert r.canonical_classes == 15
    assert [(row.size, row.min_quotient, row.subsets) for row in r.by_size] == [
        (1, 1, 6), (2, 2, 15), (3, 3, 20), (4, 6, 15), (5, 6, 6), (6, 6, 1)]
    # the size-3 extremal is the rotation subgroup
    assert list(r.by_size[2].extremal) == [0, 3, 4]


def test_census_of_cyclic_8(c8):
    r = classification_census(c8)
    assert r.ok
    assert r.canonical_classes == 35
    assert [(row.size, row.min_quotient, row.subsets) for row in r.by_size] == [
        (1, 1, 8), (2, 2, 28), (3, 4, 56), (4, 4, 70),
        (5, 8, 56), (6, 8, 28), (7, 8, 8), (8, 8, 1)]
    assert list(r.by_size[2].extremal) == [0, 2, 4]
    assert list(r.by_size[3].extremal) == [0, 2, 4, 6]


def test_census_of_dihedral_4_covers_the_fused_shape(d4):
    # this census is the one a normalizer-only two-coset test fails
    r = classification_census(d4)
    assert r.ok and not r.violations
    assert r.canonical_classes == 42
    assert [row.min_quotient for row in r.by_size] == [1, 2, 4, 4, 8, 8, 8, 8]


def test_census_min_quotients_match_brute_force(make_group):
    for spec in ("cyclic 6", "symmetric 3", "dihedral 4", "dicyclic 2"):
        G = make_group(spec)
        r = classification_census(G)
        expected = naive_min_quotients(G)
        assert {row.size: row.min_quotient for row in r.by_size} == expected


def test_census_subset_counts_are_binomials(make_group):
    # the orbit sizes the census adds up per row must recover every subset
    for spec in catalog_specs(16):
        G = make_group(spec)
        r = classification_census(G)
        assert [row.size for row in r.by_size] == list(range(1, G.order + 1))
        for row in r.by_size:
            assert row.subsets == math.comb(G.order, row.size), (spec, row.size)
        assert r.subsets_scanned == 2 ** (G.order - 1), spec


@pytest.mark.parametrize("spec", ["dihedral 4", "cyclic 12", "dicyclic 3"])
def test_census_reports_the_structure_clauses_that_fail(monkeypatch, make_group,
                                                         spec):
    # a picture search that claims the whole group for every set inside a
    # proper subgroup: the census must flag each such set, naming exactly
    # the clauses that then fail, in report order
    G = make_group(spec)
    whole = ensure_subgroup(G, ElemSet(G.order, (1 << G.order) - 1))
    search = census._coset_picture

    def whole_group(group, amask, single, double):
        picture = search(group, amask, single, double)
        if picture and picture[2] is None and picture[0].order < G.order:
            return whole, picture[1], None
        return picture

    monkeypatch.setattr(census, "_coset_picture", whole_group)
    expected = []
    for A in iter_canonical_sets(G):
        r = classify(G, A)
        if r.kind is ClassKind.SINGLE_COSET and r.subgroup.order < G.order:
            failing = [name for name, ok in (
                ("ratio_bound", 5 * A.size > 3 * G.order),
                ("quotient_equals_subgroup",
                 len(naive_quotient(G, A)) == G.order)) if not ok]
            expected.append((list(A), "structure", "; ".join(failing)))
    assert expected
    got = classification_census(G).violations
    assert [(list(v.subset), v.kind, v.detail) for v in got] == expected


def test_census_checks_its_quotient_against_a_recomputation(monkeypatch, d4):
    # on a small set the sweep's quotient set must meet an independent
    # recomputation, and a mismatch must stop the census
    recompute = classify_module.quotient_mask
    monkeypatch.setattr(classify_module, "quotient_mask",
                        lambda G, mask: recompute(G, mask) ^ 2)
    with pytest.raises(ValueError, match="classification quotient does not match"):
        classification_census(d4)


def test_census_extremal_rows_are_witnesses(make_group):
    # each row's extremal set must actually realize the reported minimum
    for spec in ("cyclic 10", "dihedral 4"):
        G = make_group(spec)
        for row in classification_census(G).by_size:
            assert row.extremal.size == row.size
            assert quotient_set(G, row.extremal).size == row.min_quotient


def test_census_size_filter(s3):
    r = classification_census(s3, sizes=(2, 3))
    assert (r.size_lo, r.size_hi) == (2, 3)
    assert [row.size for row in r.by_size] == [2, 3]
    assert r.subsets_scanned == math.comb(5, 1) + math.comb(5, 2)
    with pytest.raises(ValueError):
        classification_census(s3, sizes=(0, 3))
    with pytest.raises(ValueError):
        classification_census(s3, sizes=(4, 2))


def test_census_is_deterministic_across_jobs(d6, monkeypatch):
    # sweep d6 in worker processes, although it is below the pool crossover
    monkeypatch.setattr(census, "_POOL_MIN_ORDER", 1)
    base = classification_census(d6, jobs=1).to_dict()
    for jobs in (2, 3, 4):
        assert classification_census(d6, jobs=jobs).to_dict() == base
    assert json.dumps(classification_census(d6, jobs=4).to_dict(),
                      sort_keys=True) == json.dumps(base, sort_keys=True)


def test_small_groups_sweep_in_process_at_every_job_count(d6, monkeypatch):
    def no_pool(*args):
        raise AssertionError("a worker pool was started")

    assert d6.order < census._POOL_MIN_ORDER
    base = classification_census(d6).to_dict()
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert classification_census(d6, jobs=4).to_dict() == base


def test_census_rejects_bad_jobs(s3):
    with pytest.raises(ValueError):
        classification_census(s3, jobs=0)


def test_census_runtime_is_reported_but_not_serialized(s3):
    r = classification_census(s3)
    assert r.runtime_seconds >= 0.0
    assert "runtime_seconds" not in json.dumps(r.to_dict())


def test_census_order_caps():
    G25 = build_group("cyclic 25")
    with pytest.raises(ValueError, match="allow_big"):
        classification_census(G25)
    G33 = build_group("cyclic 33")
    with pytest.raises(ValueError, match="hard"):
        classification_census(G33, allow_big=True)
    # a lowered cap is overridable per call
    G12 = build_group("cyclic 12")
    with pytest.raises(ValueError, match="cap"):
        classification_census(G12, cap=8)
    assert classification_census(G12, cap=8, allow_big=True).ok
    assert DEFAULT_CENSUS_CAP == 24 and HARD_CENSUS_CAP == 32


# === structure scans ===


def test_scan_counts_are_frozen(s3, c8, c12):
    expected = {
        ("symmetric 3", 1): (7, 15),
        ("symmetric 3", 2): (12, 15),
        ("cyclic 8", 1): (10, 35),
        ("cyclic 8", 2): (21, 35),
        ("cyclic 8", 3): (23, 35),
        ("cyclic 12", 2): (87, 351),
    }
    for G in (s3, c8, c12):
        for (spec, n), (in_range, classes) in expected.items():
            if spec != G.spec:
                continue
            s = structure_scan(G, n)
            assert s.canonical_classes == classes
            assert s.in_range == in_range
            assert s.witnesses_found == in_range
            assert s.sufficiency_checked == in_range
            assert not s.counterexamples and not s.sufficiency_failures
            assert not s.fatal


def test_scan_in_range_count_matches_brute_force(s3):
    # independent recount of the density condition over canonical classes
    for n in (1, 2):
        expected = 0
        for A in iter_canonical_sets(s3):
            q = len(naive_quotient(s3, set(A)))
            if (n + 1) * q < (2 * n + 1) * A.size:
                expected += 1
        assert structure_scan(s3, n).in_range == expected


def _unpruned_scan_counts(G, n):
    """The scan's counts recounted set by set, every subgroup tried and both
    searches run on every set they apply to."""
    cands = [(H, left_cosets(G, H)) for H in all_subgroups(G)]
    in_range = witnesses = checked = 0
    counterexamples, failures = [], []
    for A in iter_canonical_sets(G):
        k, qk = A.size, quotient_mask(G, A.bits).bit_count()
        hit = (n + 1) * qk < (2 * n + 1) * k
        if hit:
            in_range += 1
            if find_structure_witness(G, A, n) is not None:
                witnesses += 1
            else:
                counterexamples.append(A)
        if 2 * k > qk and _structure_hypotheses_exist(G, cands, A.bits, n):
            checked += 1
            if not hit:
                failures.append(A)
    return in_range, witnesses, checked, counterexamples, failures


def test_scan_pruning_loses_nothing(make_group):
    # the scan tries only the subgroups that could pass the density bound
    # for each set size, and skips the hypothesis search after a witness;
    # the recount runs on a freshly built group, so it reads none of the
    # products the scan memoised
    for spec in catalog_specs(12):
        G = make_group(spec)
        for n in (1, 2, 3):
            s = structure_scan(G, n)
            got = (s.in_range, s.witnesses_found, s.sufficiency_checked,
                   list(s.counterexamples), list(s.sufficiency_failures))
            assert got == _unpruned_scan_counts(build_group(spec), n), (spec, n)


def test_memoised_rep_products_match_a_fresh_recomputation():
    # every (subgroup, representatives) entry a scan leaves on the group
    # equals the products and window clause recomputed on a fresh group
    for spec in catalog_specs(12):
        G = build_group(spec)
        structure_scan(G, 3)
        fresh = build_group(spec)
        assert G._rep_products, spec
        for (hbits, rep_bits), (cover, sandwich, window) in G._rep_products.items():
            H = ensure_subgroup(fresh, ElemSet(G.order, hbits))
            reps = list(ElemSet(G.order, rep_bits))
            assert cover == product_mask(fresh, rep_bits, hbits)
            assert sandwich == _sandwich(fresh, H, rep_bits)
            norm = normalizer(fresh, H)
            x0inv = fresh.inv[reps[0]]
            if all(fresh.mul[x0inv][x] in norm for x in reps):
                assert window is None
            else:
                assert window is (sandwich.bit_count() == (2 * len(reps) - 1) * H.order)


def test_scan_is_deterministic_across_jobs(c12, monkeypatch):
    # sweep c12 in worker processes, although it is below the pool crossover
    monkeypatch.setattr(census, "_POOL_MIN_ORDER", 1)
    base = structure_scan(c12, 2, jobs=1).to_dict()
    for jobs in (2, 4):
        assert structure_scan(c12, 2, jobs=jobs).to_dict() == base


def test_scan_rejects_bad_max_reps(s3):
    with pytest.raises(ValueError):
        structure_scan(s3, 0)


def test_scan_respects_caps():
    with pytest.raises(ValueError, match="allow_big"):
        structure_scan(build_group("cyclic 25"), 1)


# === single-set structure witnesses ===


def test_witness_for_a_subgroup(c12):
    H = ElemSet.from_elements(12, [0, 4, 8])
    w = find_structure_witness(c12, H, 1)
    assert w is not None
    assert set(w.subgroup) == {0, 4, 8}
    assert list(w.reps) == [0]
    assert w.checks.ok


def test_witness_for_a_two_coset_set(c12):
    A = ElemSet.from_elements(12, [0, 4, 8, 1, 5, 9])
    assert find_structure_witness(c12, A, 1) is None
    w = find_structure_witness(c12, A, 2)
    assert w is not None
    assert set(w.subgroup) == {0, 4, 8}
    assert list(w.reps) == [0, 1]
    assert w.checks.ok


def test_witness_for_the_fused_set(d4):
    # {e, r, s, rs}: the reps of the only workable subgroup H = {e, s} never
    # share a normalizer coset, so the witness rests on the collapsed
    # sandwich H A0^-1 A0 H instead
    A = ElemSet.from_elements(8, [0, 1, 4, 5])
    w = find_structure_witness(d4, A, 2)
    assert w is not None
    assert set(w.subgroup) == {0, 4}
    assert list(w.reps) == [0, 1]
    assert w.checks.ok
    status = {item.name: item.status for item in w.checks.items}
    assert status["normalizer_shape"] == "skip"
    assert status["window_shape"] == "pass"


def test_no_witness_for_a_spread_set(c7):
    assert find_structure_witness(c7, ElemSet.from_elements(7, [0, 1, 3]), 2) is None


def test_witness_reports_match_golden_digest():
    # sha256 over every canonical set of the catalog up to order 10 at
    # n = 1, 2, 3: its witness subgroup, representatives and the whole
    # formatted check report, or None; pinned before the report was built
    # lazily from the clause values
    h = hashlib.sha256()
    for spec in catalog_specs(10):
        G = build_group(spec)
        for n in (1, 2, 3):
            for A in iter_canonical_sets(G):
                w = find_structure_witness(G, A, n)
                record = [spec, n, list(A)]
                record += ([None] if w is None else
                           [list(w.subgroup), list(w.reps), w.checks.to_dict()])
                h.update(json.dumps(record).encode("utf-8") + b"\n")
    assert h.hexdigest() == (
        "5b28acfd1a1278ac835e11a92549ce91899a37fd8b6bd6df38fa5a8c3255ab21")


def test_witness_scan_agreement(s3):
    # every in-range canonical class yields a witness through the same entry
    # point the scan uses
    for A in iter_canonical_sets(s3):
        q = quotient_set(s3, A).size
        for n in (1, 2):
            w = find_structure_witness(s3, A, n)
            if (n + 1) * q < (2 * n + 1) * A.size:
                assert w is not None and w.checks.ok
