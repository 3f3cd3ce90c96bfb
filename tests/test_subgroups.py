"""Subgroup enumeration, normalizers, cosets, and the four coset laws."""

import random

import pytest

from quotset.classify import _window_masks
from quotset.groups import ALTERNATING4_SPEC, build_group, catalog_entries, catalog_specs
from quotset.setops import ElemSet, is_subgroup_mask, subgroup_closure_mask
from quotset.subgroups import (
    Subgroup,
    all_subgroups,
    check_coset_laws,
    ensure_subgroup,
    left_cosets,
    normalizer,
)

from oracles import (
    naive_double_coset,
    naive_generated,
    naive_normalizer,
    naive_subgroups,
    random_subset,
)


# === construction and enumeration ===


def test_generated_subgroup_matches_breadth_first_oracle(make_group):
    rng = random.Random(0x6E6)
    specs = catalog_specs(16)
    for _ in range(150):
        G = make_group(rng.choice(specs))
        gens = random_subset(rng, G.order, hi=3)
        sub = subgroup_closure_mask(G, sum(1 << x for x in gens))
        assert set(ElemSet(G.order, sub)) == naive_generated(G, gens)
        assert is_subgroup_mask(G, sub)


def test_generated_subgroup_of_nothing_is_trivial(c8):
    assert subgroup_closure_mask(c8, 0) == 1


def test_generated_subgroup_matches_the_oracle_past_one_chunk_triple(make_group):
    # order 37 and 40 read two triples of chunks, and the sets that reach G
    # (or half of it, in dihedral 20) meet the closure's early exit
    rng = random.Random(0x37)
    for spec, fixed in (("cyclic 37", [[1], [36], [5, 11]]),
                        ("dihedral 20", [[1, 20], [2, 20], [2, 5], [20, 21], [10]])):
        G = make_group(spec)
        sets = fixed + [sorted(random_subset(rng, G.order, hi=3)) for _ in range(40)]
        reached = 0
        for gens in sets:
            sub = subgroup_closure_mask(G, sum(1 << x for x in gens))
            assert set(ElemSet(G.order, sub)) == naive_generated(G, gens), (spec, gens)
            reached += sub == (1 << G.order) - 1
        assert reached >= 3, spec


def test_all_subgroups_equal_brute_force_on_small_groups(make_group):
    for spec in catalog_specs(16):
        G = make_group(spec)
        got = {frozenset(H) for H in all_subgroups(G)}
        assert got == set(naive_subgroups(G)), spec


def _assert_lattice_is_closed(G):
    subs = {H.bits for H in all_subgroups(G)}
    for x in range(G.order):
        assert sum(1 << y for y in naive_generated(G, [x])) in subs, x
    for h in subs:
        for k in subs:
            if h < k:
                assert subgroup_closure_mask(G, h | k) in subs, (h, k)


def test_all_subgroups_hold_every_cyclic_subgroup_and_every_join(make_group):
    for spec in catalog_specs(24):
        _assert_lattice_is_closed(make_group(spec))


@pytest.mark.extended
@pytest.mark.parametrize("spec", [spec for order, spec in catalog_entries(32)
                                  if order > 24])
def test_all_subgroups_hold_every_cyclic_subgroup_and_every_join_to_order_32(
        make_group, spec):
    _assert_lattice_is_closed(make_group(spec))


def test_subgroup_counts_are_frozen(make_group):
    for spec, count in [
        ("symmetric 3", 6),
        ("cyclic 8", 4),
        ("cyclic 12", 6),
        ("dihedral 4", 10),
        ("dicyclic 2", 6),
        (ALTERNATING4_SPEC, 10),
        ("dihedral 6", 16),
        ("symmetric 4", 30),
        ("dihedral 12", 34),
        ("product cyclic 2 ; product cyclic 2 ; product cyclic 2 ; cyclic 2", 67),
        # past order 16, from closed forms: C2^k has sum_j [k choose j]_2
        # subgroups, and dihedral n has d(n) + sigma(n)
        ("product cyclic 2 ; product cyclic 2 ; product cyclic 2 ; product cyclic 2"
         " ; cyclic 2", 374),
        ("product cyclic 2 ; product cyclic 2 ; product cyclic 2 ; product cyclic 2"
         " ; product cyclic 2 ; cyclic 2", 2825),
        ("dihedral 16", 36),
        ("dihedral 31", 34),
    ]:
        assert len(all_subgroups(make_group(spec))) == count, spec


def test_all_subgroups_ordering_and_lagrange(make_group):
    for spec in catalog_specs(16):
        G = make_group(spec)
        subs = all_subgroups(G)
        orders = [H.order for H in subs]
        assert orders == sorted(orders)
        assert all(G.order % H.order == 0 for H in subs)
        assert subs[0].order == 1 and subs[-1].order == G.order
        keys = [(H.order, H.bits) for H in subs]
        assert keys == sorted(keys)


def test_all_subgroups_respects_the_order_cap():
    G = build_group("cyclic 70")
    with pytest.raises(ValueError,
                       match="subgroup enumeration over order 70 exceeds the cap 64"):
        all_subgroups(G)
    G = build_group("cyclic 64")
    assert len(all_subgroups(G)) == 7
    # enumeration results are cached on the table afterwards
    assert all_subgroups(G) is all_subgroups(G)


def test_ensure_subgroup_accepts_and_rejects(d4):
    H = ensure_subgroup(d4, ElemSet.from_elements(8, [0, 4]))
    assert isinstance(H, Subgroup) and H.order == 2
    with pytest.raises(ValueError, match="not a subgroup"):
        ensure_subgroup(d4, ElemSet.from_elements(8, [0, 1]))
    with pytest.raises(ValueError):
        ensure_subgroup(d4, ElemSet.from_elements(9, [0]))


# === normalizers ===


def test_normalizer_matches_oracle(make_group):
    # dihedral 20 (order 40) and cyclic 37 read two triples of chunks
    for spec in catalog_specs(16) + ["symmetric 4", "dihedral 20", "cyclic 37"]:
        G = make_group(spec)
        for H in all_subgroups(G):
            assert set(normalizer(G, H)) == naive_normalizer(G, H)


def test_normalizer_contains_subgroup_and_is_a_subgroup(make_group):
    for spec in catalog_specs(12):
        G = make_group(spec)
        for H in all_subgroups(G):
            norm = normalizer(G, H)
            assert H.bits & ~norm.bits == 0
            assert is_subgroup_mask(G, norm.bits)


def test_left_coset_table_matches_naive_cosets(make_group):
    # dihedral 20 (order 40) and cyclic 37 read two triples of chunks,
    # dihedral 28 (order 56) three
    for G in map(make_group, catalog_specs(16) + [
            "symmetric 4", "dihedral 20", "cyclic 37", "dihedral 28"]):
        for H in all_subgroups(G):
            cosets = left_cosets(G, H)
            assert len(cosets) == G.order
            for x in range(G.order):
                naive = {G.mul[x][h] for h in H}
                assert set(ElemSet(G.order, cosets[x])) == naive
            assert left_cosets(G, H) is cosets  # cached on the group table


def test_normalizer_special_cases(d4, s3):
    # the rotation subgroup of a dihedral group is normal
    rot = ensure_subgroup(d4, ElemSet.from_elements(8, [0, 1, 2, 3]))
    assert normalizer(d4, rot).size == 8
    # an order-2 subgroup generated by a transposition is self-normalizing
    hs = [H for H in all_subgroups(s3) if H.order == 2]
    assert len(hs) == 3
    for H in hs:
        assert set(normalizer(s3, H)) == set(H)


# === cosets ===


def test_double_coset_partition_is_coarser(d4):
    H = ensure_subgroup(d4, ElemSet.from_elements(8, [0, 4]))
    blocks = {_window_masks(d4, H, g)[0] for g in range(8)}
    sizes = sorted(b.bit_count() for b in blocks)
    assert sizes == [2, 2, 4]
    assert sum(sizes) == 8


def test_double_cosets_match_oracle(make_group):
    rng = random.Random(0xD0C)
    for spec in ("symmetric 4", "dicyclic 3", "dihedral 6"):
        G = make_group(spec)
        subs = all_subgroups(G)
        for _ in range(40):
            H = rng.choice(subs)
            g = rng.randrange(G.order)
            hdh, hdinvh = _window_masks(G, H, g)
            assert set(ElemSet(G.order, hdh)) == naive_double_coset(G, H, g)
            assert set(ElemSet(G.order, hdinvh)) == naive_double_coset(G, H, G.inv[g])


def test_double_coset_size_is_a_coset_multiple(s4):
    for H in all_subgroups(s4):
        for g in range(0, 24, 5):
            assert _window_masks(s4, H, g)[0].bit_count() % H.order == 0


# === the coset laws ===


def test_coset_laws_pass_on_assorted_groups(make_group):
    for spec in ("symmetric 3", "dihedral 4", "dicyclic 2", "cyclic 12",
                 ALTERNATING4_SPEC):
        G = make_group(spec)
        for H in all_subgroups(G):
            report = check_coset_laws(G, H)
            assert report.ok, (spec, list(H), report.to_dict())
            assert [i.name for i in report.items] == [
                "overlap_bound", "normalizer_match",
                "union_subgroup_square", "double_coset_size"]


def test_union_law_needs_the_normalizer_clause(d4):
    # H = {e, s} and g = rs: g*g = e lands in H, yet H | gH is not a
    # subgroup because g does not normalize H.  The law as checked carries
    # the normalizer hypothesis, so this configuration passes the check
    # while refuting the unqualified "g*g in H" version.
    H = ensure_subgroup(d4, ElemSet.from_elements(8, [0, 4]))
    g = 5
    assert d4.mul[g][g] == 0
    assert g not in normalizer(d4, H)
    union = H.bits | sum(1 << d4.mul[g][h] for h in H)
    assert not is_subgroup_mask(d4, union)
    assert check_coset_laws(d4, H).ok


def test_union_law_positive_direction(c12):
    # in an abelian group every element normalizes, so H | gH is a subgroup
    # exactly when g*g falls in H: g = 3 over H = {0, 6} gives {0, 3, 6, 9}
    H = ensure_subgroup(c12, ElemSet.from_elements(12, [0, 6]))
    union = H.bits | sum(1 << c12.mul[3][h] for h in H)
    assert is_subgroup_mask(c12, union)
    assert check_coset_laws(c12, H).ok
