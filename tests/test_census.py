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
import os
import random

import pytest

from quotset.census import (
    DEFAULT_CENSUS_CAP,
    HARD_CENSUS_CAP,
    _canonical_masks,
    _sandwich,
    _structure_hypotheses_exist,
    classification_census,
    find_structure_witness,
    structure_scan,
)
from quotset.classify import ClassKind, _coset_picture, _picture_candidates, classify
from quotset.groups import build_group, catalog_specs
from quotset.setops import (
    ElemSet,
    product_mask,
    quotient_mask,
    quotient_set,
)
from quotset.subgroups import all_subgroups, ensure_subgroup, left_cosets, normalizer

from oracles import (
    naive_canonical,
    naive_canonical_masks,
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


def canonical_sets(G, sizes=None):
    """The oracle's canonical sets, as the ElemSets the package takes."""
    return [ElemSet(G.order, m) for m in naive_canonical_masks(G, sizes)]


def test_canonical_form_properties(make_group):
    # the oracle's canonical form holds the identity, is its own canonical
    # form, is shared by every translate and keeps the quotient set
    rng = random.Random(0x1DE)
    G = make_group("dihedral 6")
    for _ in range(80):
        A = random_subset(rng, 12)
        c = naive_canonical(G, A)
        assert 0 in c
        assert naive_canonical(G, c) == c
        g = rng.randrange(12)
        assert naive_canonical(G, {G.mul[g][x] for x in A}) == c
        assert naive_quotient(G, c) == naive_quotient(G, A)


def test_canonical_form_rejects_empty(c8):
    with pytest.raises(ValueError):
        naive_canonical(c8, set())


def test_iter_canonical_sets_counts(s3, d4, c8):
    assert len(canonical_sets(s3)) == 15
    assert len(canonical_sets(d4)) == 42
    assert len(canonical_sets(c8)) == 35


def test_iter_canonical_sets_yields_canonical_reps(s3):
    seen = set()
    for A in canonical_sets(s3):
        assert 0 in A
        assert naive_canonical(s3, set(A)) == set(A)
        assert A.bits not in seen
        seen.add(A.bits)


def test_iter_canonical_sets_respects_size_filter(d4):
    got = canonical_sets(d4, sizes=(3, 4))
    assert all(3 <= A.size <= 4 for A in got)
    full = [A for A in canonical_sets(d4) if 3 <= A.size <= 4]
    assert got == full


# === the sweep kernel ===


# the partition counts the kernel tests run; at orders 1-4 the high chunks
# hold at most two elements, so partitions 3 and 4 of 5 are empty
PARTS = (1, 2, 3, 5)


def _in_partition(G, m, part, parts):
    # the kernel's partition rule, read off the mask: the elements of its two
    # high chunks, counted mod parts
    return (m >> G.action_tables().width).bit_count() % parts == part


@pytest.mark.parametrize("spec", catalog_specs(12) + ["cyclic 13", "cyclic 15",
                                                     "dihedral 8"])
def test_sweep_kernel_matches_canonical_form(make_group, spec):
    # every partition of 1, 2, 3 and 5 parts; orders 1-4 leave some of the
    # kernel's three chunks empty.  At orders 15 and 16 (chunks of 5 and 6
    # bits) the middle size range holds blocks whose chunk-0 values all fit
    # it and blocks that straddle one of its ends.
    G = make_group(spec)
    n = G.order
    expected = {}
    for m in naive_canonical_masks(G):
        A = [x for x in range(n) if m >> x & 1]
        stab = sum(1 for a in A
                   if {G.mul[G.inv[a]][x] for x in A} == set(A))
        expected[m] = (len(A), quotient_mask(G, m), stab)
    lo, hi = (n + 1) // 3, (2 * n + 2) // 3
    for sizes in ((1, n), (lo, hi)):
        for parts in PARTS:
            got = {}
            empty = 0
            for part in range(parts):
                visited = [0]
                yielded = 0
                for m, k, qmask, stab in _canonical_masks(G, *sizes, part,
                                                          parts, visited):
                    assert m not in got
                    assert _in_partition(G, m, part, parts)
                    got[m] = (k, qmask, stab)
                    yielded += 1
                # every mask of the partition in the size range, counted
                assert visited[0] == sum(
                    1 for m in range(1, 1 << n, 2)
                    if _in_partition(G, m, part, parts)
                    and sizes[0] <= m.bit_count() <= sizes[1])
                empty += not yielded and not visited[0]
            assert got == {m: row for m, row in expected.items()
                           if sizes[0] <= row[0] <= sizes[1]}
            if parts == 5 and n <= 4:
                assert empty >= 2, (sizes, parts)
    assert [m for m, *_ in _canonical_masks(G, lo, hi, 0, 1, [0])] == sorted(
        m for m, row in expected.items() if lo <= row[0] <= hi)


@pytest.mark.parametrize("spec", catalog_specs(12) + ["cyclic 13", "cyclic 15",
                                                     "dihedral 8"])
def test_block_prefilter_drops_only_non_canonical_masks(make_group, spec):
    # the kernel's block pass, block by block against the oracle's canonical
    # sets: every chunk-0 value it drops completes the block's high chunks
    # to a non-canonical mask, and every a in a kept mask's A with
    # inv(a)*A <= A is among the block's tie candidates, with the mask
    # outside its row.  The merged high rows and the translates come from
    # G.mul, not from the action tables.
    G = make_group(spec)
    n = G.order
    w = G.action_tables().width
    cm = (1 << w) - 1
    need = census._prefilter_tables(G, w)
    canonical = set(naive_canonical_masks(G))
    ties_seen = 0
    for parts in PARTS:
        dropped = 0
        for part in range(parts):
            blocks = {}
            for m in range(1, 1 << n, 2):
                if _in_partition(G, m, part, parts):
                    blocks[m & ~cm] = blocks.get(m & ~cm, 0) | 1 << (m & cm)
            for m1, cand in blocks.items():
                high = [x for x in range(w, n) if m1 >> x & 1]
                r12 = [sum(1 << G.mul[G.inv[a]][x] for x in high)
                       for a in range(n)]
                kept, ties, row = census._block_survivors(
                    cand, m1, r12, high + list(range(1, w)), need)
                assert kept & ~cand == 0
                gone = cand & ~kept
                assert not [c0 for c0 in range(cm + 1)
                            if gone >> c0 & 1 and m1 | c0 in canonical]
                dropped += gone.bit_count()
                if parts > 1:
                    continue  # the same blocks, already checked at one part
                for c0 in range(1, cm + 1, 2):
                    if not kept >> c0 & 1:
                        continue
                    A = [x for x in range(n) if (m1 | c0) >> x & 1]
                    for a in A[1:]:
                        if sum(1 << G.mul[G.inv[a]][x] for x in A) <= m1 | c0:
                            assert a in ties and not row[a] >> c0 & 1, (m1 | c0, a)
                            ties_seen += 1
        if spec == "dihedral 8":
            # a filter that dropped nothing would pass the check above
            assert 2 * dropped > 1 << n - 1, parts
    if spec == "dihedral 8":
        assert ties_seen  # and so would a block pass that saw no tie


# Order 18 is the first with three full chunks of w = 6 bits (tier-1's
# order-16 groups leave chunk 2 at four), so chunk 0 splits into two 3-bit
# halves for the quotient tables under both high chunks at full width.
@pytest.mark.extended
@pytest.mark.parametrize("spec", ["dihedral 9", "cyclic 18"])
def test_sweep_kernel_matches_the_oracles_at_order_18(make_group, spec):
    G = make_group(spec)
    n = G.order
    expected = {}
    for m in naive_canonical_masks(G):
        A = {x for x in range(n) if m >> x & 1}
        stab = sum(1 for a in A if {G.mul[G.inv[a]][x] for x in A} == A)
        expected[m] = (len(A), sum(1 << q for q in naive_quotient(G, A)), stab)
    for parts in (1, 2):
        got = {}
        for part in range(parts):
            for m, k, qmask, stab in _canonical_masks(G, 1, n, part, parts, [0]):
                got[m] = (k, qmask, stab)
        assert got == expected, parts


def test_sweep_kernel_refuses_groups_past_the_cap():
    # past order 36 the action tables are wide, which the kernel never reads
    G = build_group("cyclic 40")
    with pytest.raises(AssertionError, match="sweep cap"):
        next(_canonical_masks(G, 1, G.order, 0, 1, [0]))


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
    for parts in PARTS:
        got = dict.fromkeys(expected, 0)
        for part in range(parts):
            for _, k, _, _ in _canonical_masks(G, 1, G.order, part, parts, [0]):
                got[k] += 1
        assert got == expected, parts
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
        for m, k, qmask, _ in _canonical_masks(G, 1, G.order, 0, 1, [0]):
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
    for A in canonical_sets(G):
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
    # sweep d6 in 2-, 3- and 4-part worker pools, although it is below the
    # pool crossover and the machine may have fewer CPUs
    monkeypatch.setattr(census, "_POOL_MIN_ORDER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
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


class _PoolRequested(Exception):
    pass


@pytest.mark.parametrize("cpus, jobs, processes", [
    (2, 100_000, 2), (4, 3, 3), (4, 100_000, 4), (1, 8, None), (None, 8, None)])
def test_worker_pool_is_bounded_by_the_cpu_count(make_group, monkeypatch,
                                                  cpus, jobs, processes):
    # a sweep runs min(jobs, CPUs) partitions, and in process when that is
    # one or the CPU count is unknown.  The patched context notes the pool
    # size the sweep asks for and stops it there, so no process starts.
    requested = []

    class Context:
        def Pool(self, processes):
            requested.append(processes)
            raise _PoolRequested

    G = make_group("cyclic 18")
    assert G.order >= census._POOL_MIN_ORDER
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    if processes is None:
        assert classification_census(G, sizes=(1, 3), jobs=jobs).ok
        assert requested == []
    else:
        with pytest.raises(_PoolRequested):
            classification_census(G, sizes=(1, 3), jobs=jobs)
        assert requested == [processes]


def test_two_partitions_split_the_work_evenly(make_group):
    # at 2 parts each order-16 group's canonical classes split within 10%
    # and its in-range sets at n = 2 (3|Q| < 5|A|) within 15%
    for spec in catalog_specs(16):
        G = make_group(spec)
        if G.order != 16:
            continue
        classes, in_range = [0, 0], [0, 0]
        for part in (0, 1):
            for _, k, qmask, _ in _canonical_masks(G, 1, 16, part, 2, [0]):
                classes[part] += 1
                in_range[part] += 3 * qmask.bit_count() < 5 * k
        assert max(classes) <= 1.10 * min(classes), (spec, classes)
        assert max(in_range) <= 1.15 * min(in_range), (spec, in_range)


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
    assert classification_census(G25, sizes=(1, 2), allow_big=True).ok
    G33 = build_group("cyclic 33")
    with pytest.raises(ValueError, match="hard"):
        classification_census(G33, allow_big=True)
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
        for A in canonical_sets(s3):
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
    for A in canonical_sets(G):
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
        for n in (1, 2, 3, 4):
            s = structure_scan(G, n)
            got = (s.in_range, s.witnesses_found, s.sufficiency_checked,
                   list(s.counterexamples), list(s.sufficiency_failures))
            assert got == _unpruned_scan_counts(build_group(spec), n), (spec, n)


def test_whole_group_decides_exactly_the_sets_it_witnesses(monkeypatch):
    # with the subgroup search switched off, the scan's witnesses are the
    # ones the whole group G gives: the in-range canonical sets with Q = G
    # and (n+1)|G| < (2n+1)|A|, counted by the oracles
    monkeypatch.setattr(census, "find_structure_witness", lambda *a, **kw: None)
    for spec in catalog_specs(12):
        G = build_group(spec)
        sets = [(len(A), len(naive_quotient(G, A)))
                for A in map(set, canonical_sets(G))]
        for n in (1, 2, 3, 4):
            expected = sum(1 for k, q in sets
                           if (n + 1) * q < (2 * n + 1) * k
                           and q == G.order and (n + 1) * G.order < (2 * n + 1) * k)
            assert structure_scan(G, n).witnesses_found == expected, (spec, n)


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
    # sweep c12 in 2- and 4-part worker pools, although it is below the pool
    # crossover and the machine may have fewer CPUs
    monkeypatch.setattr(census, "_POOL_MIN_ORDER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
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
            for A in canonical_sets(G):
                w = find_structure_witness(G, A, n)
                record = [spec, n, list(A)]
                record += ([None] if w is None else
                           [list(w.subgroup), list(w.reps), w.checks.to_dict()])
                h.update(json.dumps(record).encode("utf-8") + b"\n")
    assert h.hexdigest() == (
        "5b28acfd1a1278ac835e11a92549ce91899a37fd8b6bd6df38fa5a8c3255ab21")


def test_witness_scan_agreement(s3):
    # every in-range canonical class yields a witness through the public
    # entry point, every subgroup tried; the scan decides most of these sets
    # by the whole group alone and searches only the rest
    for A in canonical_sets(s3):
        q = quotient_set(s3, A).size
        for n in (1, 2):
            w = find_structure_witness(s3, A, n)
            if (n + 1) * q < (2 * n + 1) * A.size:
                assert w is not None and w.checks.ok
