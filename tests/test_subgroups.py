"""Subgroup enumeration, normalizers, cosets, and the four coset laws."""

import random

import pytest

from quotset.classify import _window_masks
from quotset.groups import ALTERNATING4_SPEC, build_group, catalog_specs
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


def test_all_subgroups_equal_brute_force_on_small_groups(make_group):
    for spec in ("cyclic 12", "symmetric 3", "dihedral 4", "dicyclic 2",
                 "product cyclic 2 ; cyclic 4", ALTERNATING4_SPEC):
        G = make_group(spec)
        got = {frozenset(H) for H in all_subgroups(G)}
        assert got == set(naive_subgroups(G)), spec


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
    # dihedral 20 (order 40) reads two triples of chunks
    for spec in ("dihedral 4", "symmetric 4", "dicyclic 3", "dihedral 20"):
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
    # dihedral 20 (order 40) reads two triples of chunks, dihedral 28
    # (order 56) three
    for G in map(make_group, ("symmetric 4", "dihedral 20", "dihedral 28")):
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
