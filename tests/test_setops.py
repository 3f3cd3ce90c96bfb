"""Set literals, bitmask kernels, representation counts, counting bounds.

The randomized kernel checks here are the quick per-module version; the full
ten-thousand-instance oracle comparison lives in the acceptance tests.
"""

import random

import pytest

from quotset.classify import stability_diagnostics
from quotset.groups import catalog_specs
from quotset.setops import (
    ElemSet,
    check_counting_bounds,
    invert_mask,
    left_translate_mask,
    parse_set_literal,
    product_mask,
    quotient_mask,
    quotient_set,
    rep_counts_product_mask,
    rep_counts_quotient_mask,
)

from oracles import (
    naive_heavy,
    naive_inverse,
    naive_product,
    naive_product_counts,
    naive_quotient,
    naive_quotient_counts,
    random_subset,
)


def _as_set(s: ElemSet) -> set:
    return set(s)


def _members(G, mask: int) -> set:
    return set(ElemSet(G.order, mask))


# === literals and the ElemSet container ===


def test_parse_set_literal_basic():
    s = parse_set_literal("{0, 4, 8}", 12)
    assert list(s) == [0, 4, 8]
    assert s.size == 3
    assert 4 in s and 5 not in s


def test_parse_set_literal_tolerates_spacing_and_duplicates():
    assert parse_set_literal("  {2,1 , 1}  ", 4) == ElemSet.from_elements(4, [1, 2])
    assert parse_set_literal("{}", 4) == ElemSet(4)
    assert not parse_set_literal("{}", 4)


@pytest.mark.parametrize("bad", ["0, 1", "{0; 1}", "{x}", "{1.5}", "{-1}", "{9}"])
def test_parse_set_literal_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_set_literal(bad, 8)


def test_literal_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        s = ElemSet.from_elements(20, random_subset(rng, 20))
        assert parse_set_literal(s.literal(), 20) == s


def test_elemset_iterates_in_increasing_order():
    s = ElemSet.from_elements(10, [7, 1, 4])
    assert list(s) == [1, 4, 7]
    assert s.elements() == (1, 4, 7)
    assert len(s) == 3


def test_elemset_validates_its_mask():
    with pytest.raises(ValueError):
        ElemSet(4, 1 << 4)
    with pytest.raises(ValueError):
        ElemSet(0)
    with pytest.raises(ValueError):
        ElemSet.from_elements(4, [4])


# === kernels against the naive loops ===


def test_kernels_match_oracles_randomized(make_group):
    rng = random.Random(0x5E75)
    specs = catalog_specs(16)
    for _ in range(300):
        G = make_group(rng.choice(specs))
        n = G.order
        A = random_subset(rng, n)
        B = random_subset(rng, n)
        ea = ElemSet.from_elements(n, A)
        eb = ElemSet.from_elements(n, B)
        assert _members(G, product_mask(G, ea.bits, eb.bits)) == naive_product(G, A, B)
        assert _members(G, invert_mask(G, ea.bits)) == naive_inverse(G, A)
        assert _as_set(quotient_set(G, ea)) == naive_quotient(G, A)


def test_translate_masks_match_direct_loops(make_group):
    rng = random.Random(0xACE)
    for spec in ("dihedral 6", "symmetric 4", "cyclic 15"):
        G = make_group(spec)
        n = G.order
        for _ in range(40):
            A = random_subset(rng, n)
            mask = ElemSet.from_elements(n, A).bits
            g = rng.randrange(n)
            left = {G.mul[g][a] for a in A}
            right = {G.mul[a][g] for a in A}
            inv = {G.inv[a] for a in A}
            assert left_translate_mask(G, g, mask) == sum(1 << x for x in left)
            # the right translate Xg = inv(inv(g)*inv(X))
            assert invert_mask(G, left_translate_mask(
                G, G.inv[g], invert_mask(G, mask))) == sum(1 << x for x in right)
            assert invert_mask(G, mask) == sum(1 << x for x in inv)


def test_quotient_is_translation_invariant(make_group):
    # the census leans on this to scan only canonical translates
    rng = random.Random(31)
    G = make_group("dihedral 5")
    for _ in range(50):
        A = random_subset(rng, G.order)
        mask = ElemSet.from_elements(G.order, A).bits
        q = quotient_mask(G, mask)
        for g in range(G.order):
            assert quotient_mask(G, left_translate_mask(G, g, mask)) == q


def test_empty_operands_are_rejected():
    import quotset.groups as groups
    G = groups.build_group("cyclic 4")
    empty = ElemSet(4)
    with pytest.raises(ValueError, match="^A must be nonempty$"):
        quotient_set(G, empty)
    with pytest.raises(ValueError, match="^cannot analyze the empty set$"):
        stability_diagnostics(G, empty)


def test_wrong_order_sets_are_rejected(c8):
    with pytest.raises(ValueError, match="^A is over order 9, group has order 8$"):
        quotient_set(c8, ElemSet.from_elements(9, [0]))


# === representation counts ===


def test_rep_counts_match_oracle(make_group):
    rng = random.Random(0xBEEF)
    specs = catalog_specs(12)
    # dihedral 20 (order 40) reads the sub-chunk tables past order 36
    for spec in [rng.choice(specs) for _ in range(200)] + ["dihedral 20"] * 20:
        G = make_group(spec)
        n = G.order
        A = random_subset(rng, n)
        B = random_subset(rng, n)
        ea, eb = ElemSet.from_elements(n, A), ElemSet.from_elements(n, B)
        rq = rep_counts_quotient_mask(G, ea.bits, eb.bits)
        assert rq == naive_quotient_counts(G, A, B)
        rp = rep_counts_product_mask(G, ea.bits, eb.bits)
        assert rp == naive_product_counts(G, A, B)
        assert {g for g, c in enumerate(rp) if c} == naive_product(G, A, B)


def test_rep_count_invariants(make_group):
    rng = random.Random(0xFACE)
    for spec in ("symmetric 3", "cyclic 12", "dicyclic 3"):
        G = make_group(spec)
        n = G.order
        for _ in range(40):
            A = random_subset(rng, n)
            mask = ElemSet.from_elements(n, A).bits
            rc = rep_counts_quotient_mask(G, mask, mask)
            k = len(A)
            assert rc[0] == k
            assert sum(rc) == k * k
            assert all(rc[g] == rc[G.inv[g]] for g in range(n))
            assert all(rc[g] <= k for g in range(n))
            assert all(rc[g] >= 2 * k - n for g in range(n))
            assert {g for g, c in enumerate(rc) if c} == naive_quotient(G, A)


# === the heavy part of a quotient set ===


def test_heavy_quotient_matches_oracle(make_group):
    rng = random.Random(0xD00D)
    specs = catalog_specs(12)
    for _ in range(200):
        G = make_group(rng.choice(specs))
        A = random_subset(rng, G.order)
        diag = stability_diagnostics(G, ElemSet.from_elements(G.order, A))
        got = _as_set(diag.heavy)
        assert got == naive_heavy(G, A)


def test_heavy_quotient_is_inversion_stable_and_contains_identity(make_group):
    rng = random.Random(0xF00)
    G = make_group("dihedral 6")
    for _ in range(60):
        A = random_subset(rng, G.order)
        diag = stability_diagnostics(G, ElemSet.from_elements(G.order, A))
        heavy = _as_set(diag.heavy)
        if heavy:
            assert 0 in heavy
        assert heavy == {G.inv[g] for g in heavy}


def test_heavy_quotient_of_a_subgroup_is_the_subgroup(c12):
    h = ElemSet.from_elements(12, [0, 4, 8])
    assert stability_diagnostics(c12, h).heavy == h


# === counting bounds ===


def test_counting_bounds_hold_on_random_pairs(make_group):
    rng = random.Random(0x9A9A)
    specs = catalog_specs(16)
    for _ in range(300):
        G = make_group(rng.choice(specs))
        A = ElemSet.from_elements(G.order, random_subset(rng, G.order))
        B = ElemSet.from_elements(G.order, random_subset(rng, G.order))
        report = check_counting_bounds(G, A, B)
        assert report.ok, report.to_dict()
        assert [i.name for i in report.items] == [
            "pigeonhole_quotient", "kemperman_wehn"]


def test_counting_bounds_on_structured_pairs(d4):
    # a left coset absorbs its subgroup on the right, where the bound is
    # tight; on the left the product blows up to the full double coset
    H = ElemSet.from_elements(8, [0, 4])
    coset = ElemSet.from_elements(8, [1, 5])
    report = check_counting_bounds(d4, coset, H)
    assert report.ok
    assert product_mask(d4, coset.bits, H.bits) == coset.bits
    assert _members(d4, product_mask(d4, H.bits, coset.bits)) == {1, 3, 5, 7}

