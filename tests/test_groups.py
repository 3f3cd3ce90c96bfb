"""Group construction: spec grammar, table validity, and catalog coverage."""

import random

import pytest

from quotset.groups import (
    ALTERNATING4_SPEC,
    TABLE_ORDER_CAP,
    GroupSpecError,
    build_group,
    catalog_specs,
    parse_spec_lines,
    spec_order,
    verify_group_axioms,
)

from oracles import naive_generated


# === table validity ===


def test_axioms_exhaustive_over_small_catalog(make_group):
    for spec in catalog_specs(16):
        report = verify_group_axioms(make_group(spec))
        assert report.ok, f"{spec}: {[i.name for i in report.failures()]}"
        assert [i.name for i in report.items] == [
            "identity", "inverses", "associativity", "latin_square"]


def test_inverse_table_is_an_involution(make_group):
    for spec in catalog_specs(16):
        G = make_group(spec)
        assert all(G.inv[G.inv[x]] == x for x in range(G.order))


def test_identity_is_element_zero(make_group):
    for spec in catalog_specs(16):
        G = make_group(spec)
        assert G.identity == 0
        assert all(G.mul[0][x] == x == G.mul[x][0] for x in range(G.order))


# === action tables ===


def _check_chunk(G, base, tables):
    # every stored entry against mul and inv: entry v lists, inverts or
    # translates the elements X that the bits of v mark, counted from base;
    # distinct elements have distinct images, so each sum is their union
    rows, invert, elems = tables
    sets = [[base + i for i in range(v.bit_length()) if v >> i & 1]
            for v in range(len(rows))]
    assert elems == [[x for x in X if x] for X in sets]
    assert invert == [sum({1 << G.inv[x] for x in X}) for X in sets]
    for a in range(G.order):
        left_bits = [1 << G.mul[G.inv[a]][x] for x in range(G.order)]
        assert [row[a] for row in rows] == [
            sum(map(left_bits.__getitem__, X)) for X in sets]


def test_action_tables_layout_and_entries(make_group):
    # One triple of ceil(n/3)-bit chunks up to order 36; past it, triples of
    # chunks of at most 8 bits, so no chunk has more than 256 rows and the
    # row tables hold at most 32 * n^2 masks.  The orders run upwards so a
    # layout that would ask for 2^24-row chunks at cyclic 70 fails at
    # cyclic 37 first; cyclic 97's last chunk lies wholly past the order.
    row_masks = {37: 23_828, 48: 73_728, 49: 25_186, 70: 147_840, 97: 167_713,
                 120: 460_800}
    groups = [make_group(spec) for spec in catalog_specs(16)]
    groups += [build_group(f"cyclic {n}") for n in (33, 36, *row_masks)]
    for G in groups:
        n = G.order
        t = G.action_tables()
        w, triples = t.width, len(t.rows)
        assert t.chunk_mask == (1 << w) - 1
        if n <= 36:
            assert (triples, w) == (1, -(-n // 3))
        else:
            assert w <= 8
            assert 3 * (triples - 1) * w < n <= 3 * triples * w
        tables = (t.rows, t.invert, t.elems)
        assert all(len(table) == triples and all(len(triple) == 3 for triple in table)
                   for table in tables)
        chunks = [chunk for triple in zip(*tables) for chunk in zip(*triple)]
        for c, chunk in enumerate(chunks):
            base, bits = c * w, max(0, min(w, n - c * w))
            assert all(len(table) == 1 << bits for table in chunk)
            _check_chunk(G, base, chunk)
        if n > 36:
            masks = sum(len(rows) for rows, _, _ in chunks) * n
            assert masks == row_masks[n] <= 32 * n * n


def test_action_tables_refuse_orders_past_the_table_cap():
    assert TABLE_ORDER_CAP == 120  # symmetric 5 still gets its tables
    G = build_group("cyclic 121")
    with pytest.raises(ValueError, match="^order 121 exceeds the action-table cap 120$"):
        G.action_tables()
    assert G._tables is None


# === family conventions ===


def test_known_orders(make_group):
    for spec, order in [
        ("cyclic 1", 1),
        ("cyclic 17", 17),
        ("dihedral 1", 2),
        ("dihedral 9", 18),
        ("dicyclic 2", 8),
        ("dicyclic 5", 20),
        ("symmetric 3", 6),
        ("symmetric 4", 24),
        ("symmetric 5", 120),
        (ALTERNATING4_SPEC, 12),
        ("product cyclic 2 ; cyclic 3", 6),
        ("product cyclic 2 ; product cyclic 3 ; cyclic 4", 24),
        ("perm degree=3 gens=[(2 1 3)]", 2),
        ("perm degree=3 gens=[(2 1 3),(1 3 2)]", 6),
        ("perm degree=3 gens=[]", 1),
    ]:
        assert make_group(spec).order == order, spec
        assert spec_order(spec) == order, spec


@pytest.mark.parametrize("n", [1, 9, 20])
def test_cyclic_multiplication_is_addition(make_group, n):
    G = make_group(f"cyclic {n}")
    for a in range(n):
        for b in range(n):
            assert G.mul[a][b] == (a + b) % n
    assert all(G.inv[a] == (-a) % n for a in range(n))
    assert G.element_names == tuple(str(a) for a in range(n))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_dihedral_labeling_and_law(make_group, n):
    # ids 0..n-1 are the rotations r^i, ids n..2n-1 the reflections r^i s,
    # and (r^a s^e)(r^b s^f) = r^(a + (-1)^e b) s^(e xor f)
    G = make_group(f"dihedral {n}")
    for a in range(n):
        for e in (0, 1):
            x = a + n * e
            for b in range(n):
                for f in (0, 1):
                    y = b + n * f
                    exp = (a + (b if e == 0 else -b)) % n
                    assert G.mul[x][y] == exp + n * (e ^ f)
    assert G.element_names == tuple(
        [f"r^{i}" for i in range(n)] + [f"r^{i} s" for i in range(n)])


def test_symmetric_composition_applies_left_factor_first(s3):
    # id 2 is (1 2), id 1 is (2 3); doing (1 2) then (2 3) sends 1 to 3,
    # 2 to 1, 3 to 2, which is the cycle (1 3 2) = id 4.
    assert s3.element_names[2] == "(1 2)"
    assert s3.element_names[1] == "(2 3)"
    assert s3.element_names[4] == "(1 3 2)"
    assert s3.mul[2][1] == 4


@pytest.mark.parametrize("m", [2, 3, 5, 6])
def test_dicyclic_relations(make_group, m):
    # ids 0..2m-1 are a^i, ids 2m..4m-1 are a^i x; a has order 2m, x^2 = a^m
    # and x a x^-1 = a^-1, so (a^i x^e)(a^k x^f) = a^(i + (-1)^e k + m [e = f = 1]) x^(e xor f)
    G = make_group(f"dicyclic {m}")
    n = 2 * m
    for i in range(n):
        for e in (0, 1):
            for k in range(n):
                for f in (0, 1):
                    exp = (i + (-k if e else k) + (m if e and f else 0)) % n
                    assert G.mul[i + n * e][k + n * f] == exp + n * (e ^ f)
    assert G.element_names == tuple(
        [f"a^{i}" for i in range(n)] + [f"a^{i} x" for i in range(n)])


def test_product_is_componentwise(make_group):
    G = make_group("product cyclic 2 ; cyclic 3")
    # names expose the coordinates; multiplication must act on each factor
    coords = [tuple(int(t) for t in name.strip("()").split(","))
              for name in G.element_names]
    for x in range(6):
        for y in range(6):
            cx, cy = coords[x], coords[y]
            expected = ((cx[0] + cy[0]) % 2, (cx[1] + cy[1]) % 3)
            assert coords[G.mul[x][y]] == expected


def test_abelian_products_commute(make_group):
    G = make_group("product cyclic 4 ; cyclic 4")
    assert all(G.mul[x][y] == G.mul[y][x]
               for x in range(G.order) for y in range(G.order))


def test_perm_spec_closes_generators(make_group):
    # a transposition and a 3-cycle generate all of the degree-3 permutations
    G = make_group("perm degree=3 gens=[(2 1 3),(2 3 1)]")
    assert G.order == 6
    gens = [x for x in range(G.order)
            if G.element_names[x] in ("(1 2)", "(1 2 3)")]
    assert sorted(naive_generated(G, gens)) == list(range(6))


def test_alternating4_spec_is_order_twelve(a4):
    assert a4.order == 12
    assert a4.element_names[0] == "()"
    # element orders 1, 2, 3 only: no transpositions or 4-cycles sneak in
    orders = []
    for x in range(12):
        k, cur = 1, x
        while cur != 0:
            cur = a4.mul[cur][x]
            k += 1
        orders.append(k)
    assert sorted(set(orders)) == [1, 2, 3]
    assert orders.count(2) == 3 and orders.count(3) == 8


# === spec grammar ===


def test_spec_is_normalized_and_round_trips():
    G = build_group("  cyclic   6 ")
    assert G.spec == "cyclic 6"
    H = build_group(G.spec)
    assert H.mul == G.mul and H.element_names == G.element_names


def test_catalog_specs_round_trip(make_group):
    for spec in catalog_specs(16):
        assert make_group(spec).spec == spec


@pytest.mark.parametrize("bad", [
    "cyclic",
    "cyclic 0",
    "cyclic -3",
    "frobnitz 5",
    "dihedral x",
    "cyclic ٣",  # a digit, but not an ASCII one
    "cyclic 6 extra",
    "perm degree=3 gens=[(1 1 2)]",
    "perm degree=3 gens=[(4 1 2)]",
    "perm degree=3 gens=[(1 2)]",
    "product cyclic 2 ;",
    "product product cyclic 2 ; cyclic 2 ; cyclic 2",
])
def test_bad_specs_raise(bad):
    with pytest.raises(GroupSpecError):
        build_group(bad)


def test_spec_errors_name_the_offending_column():
    with pytest.raises(GroupSpecError, match="column"):
        build_group("dihedral x")


def test_order_cap_is_enforced():
    # S8 by a cycle and a transposition: the closure passes 7! = 5040 elements;
    # spec_order refuses each spec with the message build_group gives
    for spec, message in [
        ("perm degree=8 gens=[(2 3 4 5 6 7 8 1),(2 1 3 4 5 6 7 8)]",
         "^permutation closure exceeds the order cap 5040 "),
        ("cyclic 6000", "^order 6000 exceeds the order cap 5040 "),
        ("product cyclic 71 ; cyclic 72", "^product order 5112 exceeds the order cap 5040 "),
    ]:
        for parse in (build_group, spec_order):
            with pytest.raises(GroupSpecError, match=message):
                parse(spec)


def test_parse_spec_lines_strips_comments_and_blanks():
    text = """
    # leading comment
    cyclic 6

    dihedral 4   # trailing comment
      symmetric 3
    """
    assert parse_spec_lines(text) == ["cyclic 6", "dihedral 4", "symmetric 3"]


# === the catalog ===


def test_catalog_sizes_are_frozen():
    assert len(catalog_specs(12)) == 27
    assert len(catalog_specs(16)) == 38
    assert len(catalog_specs(24)) == 57


def test_catalog_is_sorted_unique_and_in_range(make_group):
    specs = catalog_specs(24)
    assert len(set(specs)) == len(specs)
    orders = [make_group(s).order for s in specs]
    assert orders == sorted(orders)
    assert all(o <= 24 for o in orders)


def test_catalog_membership_thresholds():
    assert ALTERNATING4_SPEC in catalog_specs(12)
    assert ALTERNATING4_SPEC not in catalog_specs(11)
    assert "symmetric 4" in catalog_specs(24)
    assert "symmetric 4" not in catalog_specs(23)
    assert "dicyclic 2" in catalog_specs(8)
    assert catalog_specs(0) == []


def test_catalog_covers_noncyclic_abelians_at_sixteen():
    specs = catalog_specs(16)
    assert "product cyclic 2 ; cyclic 8" in specs
    assert "product cyclic 4 ; cyclic 4" in specs
    assert "product cyclic 2 ; product cyclic 2 ; cyclic 4" in specs
    assert ("product cyclic 2 ; product cyclic 2 ; "
            "product cyclic 2 ; cyclic 2") in specs
    # the cyclic C16 itself appears only under its own family
    assert "product cyclic 16" not in specs


def test_element_names_are_unique(make_group):
    for spec in catalog_specs(16):
        G = make_group(spec)
        assert len(set(G.element_names)) == G.order
        assert G.name_of(0) == G.element_names[0]


def test_random_tables_pass_axioms_spot_checks(make_group):
    rng = random.Random(0xC0FFEE)
    specs = catalog_specs(16)
    for _ in range(50):
        G = make_group(rng.choice(specs))
        x, y, z = (rng.randrange(G.order) for _ in range(3))
        assert G.mul[G.mul[x][y]][z] == G.mul[x][G.mul[y][z]]
